"""Tests for the command-line interface: subcommands, exit codes, plumbing."""

import argparse
import csv
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jumpvol
import numpy as np

from jumpvol import EstimatorConfig, cancelling_kernel, jump_bias
from jumpvol.cli import build_parser, cli
from jumpvol.harness import path_from_csv
from jumpvol.kernels import phi, truncated_sums


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def draws(monkeypatch):
    """The calls of `draw_parts`, the routine a Monte Carlo block draws its
    parts with, recorded in this process: the work runs on one CPU."""
    from jumpvol import harness, workers

    calls = []
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    real = harness.draw_parts
    spy = lambda *args: calls.append("draw_parts") or real(*args)
    monkeypatch.setattr(harness, "draw_parts", spy)
    return calls


class TestDrawSpies:
    """The spy of `draws` sees a valid command's draws, so a test that
    finds it empty shows that nothing was drawn.  Each block makes one
    call, however many jump laws it holds."""

    def test_mc_table_draws(self, capsys, tmp_path, draws):
        cfg = tmp_path / "exp.cfg"
        second_law = "\n[cell]\nalpha = 1.5\ngamma = 1\nbeta = 0.2\nk = 2\n"
        cfg.write_text(TestMcTable.CFG + second_law)
        out = tmp_path / "t.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        assert draws == ["draw_parts"]

    def test_rate_check_draws(self, capsys, tmp_path, draws):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "replicates = 10\nn_grid = 50 100 200 400\n"
            "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 3\n"
        )
        code, _, _ = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 0
        assert draws == ["draw_parts"] * 4


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--bogus", "1")
        assert code == 1

    def test_validation_error(self, capsys, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("i,t,x\n0,0,0\n1,0.5,1\n2,1,2\n")
        code, _, _ = run_cli(
            capsys,
            "estimate",
            "--in",
            str(p),
            "--beta",
            "0.9",  # out of (0, 1/2)
            "--alpha",
            "1.5",
            "--gamma",
            "1",
        )
        assert code == 1

    def test_estimate_takes_no_seed(self, capsys, tmp_path):
        """Estimating a given path draws nothing, so --seed is refused."""
        p = tmp_path / "x.csv"
        p.write_text("i,t,x\n0,0,0\n1,0.5,1\n2,1,2\n")
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "1.5"]
        args += ["--gamma", "1"]
        assert run_cli(capsys, *args)[0] == 0
        code, out, err = run_cli(capsys, *args, "--seed", "1")
        assert code == 1
        assert "unrecognized arguments: --seed 1" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "estimate",
            "--in",
            "/nonexistent/path.csv",
            "--beta",
            "0.2",
            "--alpha",
            "1.5",
            "--gamma",
            "1",
        )
        assert code == 1


class TestSimulate:
    def test_writes_path_csv(self, capsys, tmp_path):
        out = tmp_path / "path.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "30", "--seed", "4", "--out", str(out)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["i", "t", "x"]
        assert len(rows) == 32
        assert float(rows[1][2]) == 0.0

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "5", "--seed", "1")
        assert code == 0
        assert out.startswith("i,t,x")

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--n", "40", "--seed", "8", "--out", str(a))
        run_cli(capsys, "simulate", "--n", "40", "--seed", "8", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestEstimate:
    def test_round_trip_matches_in_process(self, capsys, tmp_path):
        """simulate | estimate prints Q_n, Q_n minus the jump bias and Q_nc of
        the loaded path bit-exactly, with Q_nc's composite at each --M, against
        dense sums dx * dx * K(dx / u_n) over the terms where K != 0."""
        out = tmp_path / "p.csv"
        simulate = "simulate --n 100 --gamma 1 --alpha 1.5 --seed 3 --out".split()
        assert run_cli(capsys, *simulate, str(out))[0] == 0
        dx = path_from_csv(out.read_text())
        u = EstimatorConfig(beta=0.2, k=2.0).threshold(len(dx))
        for M in (4.0, 2.5):
            args = ["estimate", "--in", str(out), "--beta", "0.2", "--k", "2"]
            args += ["--alpha", "1.5", "--gamma", "1", "--M", str(M)]
            code, text, _ = run_cli(capsys, *args)
            assert code == 0
            printed = [float(line.split("=")[1]) for line in text.splitlines()]
            with np.errstate(over="ignore", invalid="ignore"):
                q_n, q_nc = [
                    float(np.where(kv != 0.0, dx * dx * kv, 0.0).sum())
                    for kv in (phi(dx / u), cancelling_kernel(1.5, M)(dx / u))
                ]
            q_corrected = q_n - jump_bias(1.5, 0.2, 1.0, 2.0, len(dx))
            assert printed == [q_n, q_corrected, q_nc], M

    def test_one_kernel_pass(self, capsys, tmp_path, monkeypatch):
        """The three estimates come from one truncated_sums pass over phi
        and the composite; each call records its kernels."""
        from jumpvol import estimators

        calls = []

        def counted(*args):
            calls.append(len(args) - 2)
            return truncated_sums(*args)

        p = tmp_path / "p.csv"
        p.write_text("i,t,x\n0,0.0,0.0\n1,0.5,0.01\n2,1.0,0.03\n")
        monkeypatch.setattr(estimators, "truncated_sums", counted)
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "1.5"]
        assert run_cli(capsys, *args, "--gamma", "1")[0] == 0
        assert calls == [2]

    def test_path_rounded_past_its_increments_exits_1(self, capsys, tmp_path):
        """At alpha 0.1 a huge jump takes the path to |x| ~ 4e11, where doubles
        are 6e-5 apart; the increments read back would have lost digits."""
        p = tmp_path / "p.csv"
        simulate = "simulate --n 700 --gamma 1 --alpha 0.1 --seed 0 --out".split()
        assert run_cli(capsys, *simulate, str(p))[0] == 0
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--k", "2"]
        code, out, err = run_cli(capsys, *args, "--alpha", "0.1", "--gamma", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: path CSV reaches |x| = ")
        assert "lost digits to rounding" in err

    @pytest.mark.parametrize(
        "row", ["1,0.5", "1,0.5,abc", "1,0.5,nan", "1,0.5,inf", "1,0.5,-inf"]
    )
    def test_malformed_path_csv_exits_1(self, capsys, tmp_path, row):
        """A short row, or an x that is not a number or not finite, is refused
        with the line it is on; a non-finite x is not dropped from the sums."""
        p = tmp_path / "p.csv"
        p.write_text(f"i,t,x\n0,0.0,0.0\n{row}\n2,1.0,0.03\n")
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "1.5"]
        code, out, err = run_cli(capsys, *args, "--gamma", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: path CSV line 3")

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0,0.0,0.0\n2,0.5,0.01\n3,1.0,0.03\n", 3),
            ("0,0.0,0.0\n1,0.3,0.01\n2,1.0,0.03\n", 3),
            ("0,0.0,0.0\n1,0.25,0.01\n2,0.5,0.03\n", 3),
            ("7,0,0.0\n3,5,0.01\n9,10,0.03\n", 2),
        ],
        ids=["gap-in-i", "uneven-t", "t-ends-before-1", "i-out-of-order"],
    )
    def test_path_csv_off_the_grid_exits_1(self, capsys, tmp_path, rows, line):
        """Rows must be i = 0, 1, ..., n in order with t = i/n; the first row
        that is not is refused with the line it is on."""
        p = tmp_path / "p.csv"
        p.write_text("i,t,x\n" + rows)
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "1.5"]
        code, out, err = run_cli(capsys, *args, "--gamma", "1")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: path CSV line {line}: expected i = {line - 2}")

    def test_kernel_m_disagreeing_with_m_rejected(self, capsys, tmp_path):
        """estimate takes no --kernel: Q_n's kernel is always phi, and --M is
        the M of Q_nc's composite.  A kernel name is refused, with a `:M=`
        suffix agreeing with --M or not, or bare."""
        p = tmp_path / "p.csv"
        p.write_text("i,t,x\n0,0.0,0.0\n1,0.5,0.01\n2,1.0,0.03\n")
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "0.5"]
        args += ["--gamma", "3", "--kernel"]
        for kernel, extra in (("psi:M=6", []), ("psi:M=6", ["--M", "6"]), ("phi", [])):
            code, out, err = run_cli(capsys, *args, kernel, *extra)
            assert code == 1
            assert err.startswith("error: unrecognized arguments: --kernel")
            assert out == ""

    def test_prints_three_estimates(self, capsys, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("i,t,x\n0,0.0,0.0\n1,0.5,0.01\n2,1.0,0.03\n")
        code, text, _ = run_cli(
            capsys,
            "estimate",
            "--in",
            str(p),
            "--beta",
            "0.2",
            "--k",
            "3",
            "--alpha",
            "0.5",
            "--gamma",
            "3",
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("q_n =")
        assert lines[1].startswith("q_n_corrected =")
        assert lines[2].startswith("q_n_cancelled =")


class TestMcTable:
    CFG = """\
n = 150
replicates = 6
sigma = 1.0
seed = 5

[cell]
alpha = 1.2
gamma = 1
beta = 0.2
k = 2
"""

    def test_writes_table(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        out = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "mc-table", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == 1.2
        assert rows[0]["replicates"] == "6"

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "mc-table", "--config", str(cfg), "--out", str(a))
        run_cli(
            capsys, "mc-table", "--config", str(cfg), "--seed", "99", "--out", str(b)
        )
        assert a.read_text() != b.read_text()

    def test_missing_config(self, capsys):
        code, _, _ = run_cli(capsys, "mc-table", "--config", "/no/such.cfg")
        assert code == 1

    @pytest.mark.parametrize("kernel", ["psi:M=4", "composite:M=6"])
    def test_kernel_suffix_exits_1(self, capsys, tmp_path, kernel):
        """A config sets M by its `M` key alone and names no kernel."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG.replace("k = 2", f"k = 2\nkernel = {kernel}"))
        out = tmp_path / "t.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err == "error: line 11: unknown cell key 'kernel'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "anchor, message",
        [
            ("seed = 5", "line 5: unknown global key 'kernel'"),
            ("k = 2", "line 11: unknown cell key 'kernel'"),
        ],
    )
    def test_kernel_key_exits_1(self, capsys, tmp_path, anchor, message):
        """Q_n's kernel is always phi, so even `kernel = phi` is refused."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG.replace(anchor, f"{anchor}\nkernel = phi"))
        out = tmp_path / "t.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_no_cell_exits_1(self, capsys, tmp_path):
        """A config without a [cell] is refused, not run to a header-only CSV."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG.split("[cell]")[0])
        out = tmp_path / "t.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err == "error: config has no [cell] section\n"
        assert not out.exists()

    def test_every_replicate_failed_in_a_worker_exits_2(
        self, capsys, tmp_path, monkeypatch
    ):
        """The workers are forked, so they run the monkeypatched estimates."""
        from jumpvol import harness, workers

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG + "[cell]\nalpha = 1.5\ngamma = 1\nbeta = 0.2\nk = 2\n")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(
            harness,
            "stacked_estimates",
            lambda stack, *args: np.full(stack.shape[:-1] + (3,), np.nan),
        )
        out = tmp_path / "table.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "every replicate failed" in err
        assert not out.exists()


# Runs the CLI on argv with fork_map at two processes, whatever this machine
# has, after running `patch`; CALLER is the calling process.
FORKED_CLI = """
import os, sys
from jumpvol import cli, harness, workers
workers.usable_cpus = lambda: 2
CALLER = os.getpid()
{patch}
sys.exit(cli.cli(sys.argv[1:]))
"""


def run_forked_cli(*argv, patch=""):
    """The CLI in a fresh interpreter whose output is a pipe, as
    (exit code, stdout, stderr); a run that does not end fails the test."""
    src = str(Path(jumpvol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    code = FORKED_CLI.format(patch=patch)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestForkedWorkers:
    def test_killed_worker_exits_1(self, tmp_path):
        """A worker killed by a signal, as by the OOM killer, ends the run
        with an error that names the signal, instead of a hang."""
        cfg = tmp_path / "exp.cfg"
        # two blocks of rows, so that one runs in a worker
        cfg.write_text(TestMcTable.CFG.replace("replicates = 6", "replicates = 200"))
        # The caller lingers over its block, so that the worker, which takes
        # items on demand, has time to take the other one.
        patch = (
            "import time\n"
            "stacked_estimates = harness.stacked_estimates\n"
            "def killing(*args):\n"
            "    if os.getpid() != CALLER:\n"
            "        os.kill(os.getpid(), 9)\n"
            "    time.sleep(0.3)\n"
            "    return stacked_estimates(*args)\n"
            "harness.stacked_estimates = killing\n"
        )
        out = tmp_path / "table.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, stdout, err = run_forked_cli(*args, patch=patch)
        assert code == 1
        assert err.startswith("error: worker process") and "SIGKILL" in err
        assert not out.exists()

    def test_dzeta_prints_once(self):
        """Forked workers leave without flushing the output they inherit."""
        args = ["dzeta", "--alpha", "1.5", "--zeta", "0.1,0.01,0.001"]
        code, out, err = run_forked_cli(*args, "--draws", "40000", "--seed", "2")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "zeta,alpha,mc,quadrature,asymptotic,stderr"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.01", "0.001"]


class TestRateCheck:
    def test_small_run(self, capsys, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "replicates = 10\nseed = 2\nn_grid = 50 100 200 400\n"
            "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 3\n"
        )
        code, out, _ = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 0
        assert out.startswith("alpha,beta,expected_slope,fitted_slope,stderr")

    def test_non_integer_n_grid_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "replicates = 10\nn_grid = 100, abc, 400\n"
            "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 3\n"
        )
        code, out, err = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: line 2: bad value for n_grid")
        assert out == ""

    def test_no_cell_exits_1(self, capsys, tmp_path):
        """A config without a [cell] is refused, not answered by a bare header."""
        cfg = tmp_path / "rate.cfg"
        cfg.write_text("replicates = 10\nseed = 2\nn_grid = 50 100 200 400\n")
        code, out, err = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 1
        assert err == "error: config has no [cell] section\n"
        assert out == ""

    def test_nonpositive_bias_exits_2(self, capsys, tmp_path):
        """A threshold far below the increments truncates nearly every one,
        so Q_n < sigma^2 at every n: the fit refuses, naming them all."""
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "replicates = 10\nseed = 2\nn_grid = 50 100 200 400\n"
            "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 0.01\n"
        )
        code, out, err = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 2
        assert "mean bias not positive at n = [50, 100, 200, 400]" in err
        assert out == ""

    def test_n_grid_below_2_exits_1(self, capsys, tmp_path, draws):
        """An n below 2 is refused before any path is drawn."""
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            "replicates = 10\nn_grid = 0 100 200 1600\n"
            "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 3\n"
        )
        code, out, err = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "at least 2" in err
        assert out == ""
        assert draws == []

    @pytest.mark.parametrize(
        "grid", ["", "n_grid = 100 800\n", "n_grid = 50 60 70 80\n"]
    )
    def test_unusable_n_grid_exits_1(self, capsys, tmp_path, grid):
        """A grid with fewer than 4 values, or spanning less than a factor of
        8, is a fault of the config, as in table_beta049.cfg, which has none."""
        cfg = tmp_path / "rate.cfg"
        cell = "[cell]\nalpha = 0.5\ngamma = 1\nbeta = 0.2\nk = 3\n"
        cfg.write_text(f"replicates = 10\n{grid}{cell}")
        code, out, err = run_cli(capsys, "rate-check", "--config", str(cfg))
        assert code == 1
        assert err == "error: n grid must have >= 4 values spanning a factor of 8\n"
        assert out == ""


class TestDzeta:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dzeta",
            "--alpha",
            "1.2",
            "--zeta",
            "0.1,0.05",
            "--draws",
            "20000",
            "--seed",
            "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "zeta,alpha,mc,quadrature,asymptotic,stderr"
        assert len(lines) == 3

    def test_routes_agree_loosely(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dzeta",
            "--alpha",
            "0.5",
            "--zeta",
            "0.01",
            "--draws",
            "200000",
            "--seed",
            "3",
        )
        fields = out.strip().splitlines()[1].split(",")
        mc, quad, stderr = float(fields[2]), float(fields[3]), float(fields[5])
        assert abs(mc - quad) < 5 * stderr

    def test_zeta_zero_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "dzeta", "--alpha", "1.2", "--zeta", "0", "--draws", "100"
        )
        assert code == 1

    def test_multi_zeta_rows_equal_single_runs(self, capsys):
        """All zetas share one sample, which every single-zeta run redraws."""
        args = ("dzeta", "--alpha", "1.5", "--draws", "20000", "--seed", "4")
        code, out, _ = run_cli(capsys, *args, "--zeta", "0.1,0.01,0.001")
        assert code == 0
        rows = []
        for zeta in ("0.1", "0.01", "0.001"):
            code, text, _ = run_cli(capsys, *args, "--zeta", zeta)
            assert code == 0
            header, row = text.strip().splitlines()
            rows.append(row)
        assert out.strip().splitlines() == [header] + rows

    @pytest.mark.parametrize("zeta", ["inf", "nan", "0.1,inf"])
    def test_non_finite_zeta_exits_1(self, capsys, zeta):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", "1.5", "--zeta", zeta, "--draws", "100"
        )
        assert code == 1
        assert "zeta must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("zeta", ["abc", "0.1,abc"])
    def test_non_numeric_zeta_exits_1(self, capsys, zeta):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", "1.5", "--zeta", zeta, "--draws", "100"
        )
        assert code == 1
        assert err.startswith("error:") and "--zeta must be numbers" in err
        assert out == ""

    @pytest.mark.parametrize(
        "kernel",
        ["phi:Q=3", "composite:c=3,M=4", "composite:M=2.5", "psi:M=4", "psi"],
    )
    def test_unknown_kernel_parameter_exits_1(self, capsys, kernel):
        """--kernel is phi or composite and carries no parameter; M is set by
        --M."""
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", "1.5", "--zeta", "0.1", "--kernel", kernel
        )
        assert code == 1
        assert err.startswith("error: argument --kernel: invalid choice")
        assert out == ""

    def test_composite_takes_m(self, capsys):
        """--M sets the composite's M: the rows are d_zeta's in process with
        cancelling_kernel(alpha, M)."""
        zetas, alpha, draws, seed = [0.1, 0.01], 1.2, 50000, 3
        args = ["--alpha", repr(alpha), "--zeta", "0.1,0.01", "--kernel", "composite"]
        args += ["--M", "2.5", "--draws", str(draws), "--seed", str(seed)]
        code, out, _ = run_cli(capsys, "dzeta", *args)
        assert code == 0
        kernel = cancelling_kernel(alpha, 2.5)
        rows = jumpvol.d_zeta(zetas, alpha, draws, seed, kernel)
        expected = [
            f"{z!r},{alpha!r},{mc!r},{quad!r},"
            f"{jumpvol.d_zeta_asymptotic(z, alpha, kernel)!r},{stderr!r}"
            for z, (mc, stderr, quad) in zip(zetas, rows)
        ]
        assert out.strip().splitlines()[1:] == expected

    @pytest.mark.parametrize("M", ["nan", "inf", "1.5", "1e200"])
    def test_bad_m_exits_1_under_phi(self, capsys, M):
        """M is checked whatever the kernel, as estimate does."""
        args = ["--alpha", "1.5", "--zeta", "0.1", "--kernel", "phi", "--M", M]
        code, out, err = run_cli(capsys, "dzeta", *args, "--draws", "100")
        assert code == 1
        assert err.startswith("error:") and "M must be finite and exceed 3/2" in err
        assert out == ""

    def test_m_too_large_for_psi_exits_1(self, capsys, monkeypatch):
        """At M = 1e200 psi's 4 M^2 overflows and c~ would be NaN: the
        composite is refused before anything is drawn, with no warning."""
        calls = []
        real = jumpvol.stable.sample_stable_increment
        spy = lambda *a: calls.append(a) or real(*a)
        monkeypatch.setattr(jumpvol.stable, "sample_stable_increment", spy)
        args = ["--alpha", "1.5", "--zeta", "0.1", "--kernel", "composite"]
        code, out, err = run_cli(capsys, "dzeta", *args, "--M", "1e200")
        assert code == 1
        assert err.startswith("error: M must be finite and exceed 3/2")
        assert out == ""
        assert calls == []

    @pytest.mark.parametrize("kernel", ["phi", "composite"])
    @pytest.mark.parametrize("alpha", ["0", "2", "nan"])
    def test_alpha_out_of_range_exits_1(self, capsys, alpha, kernel):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", alpha, "--zeta", "0.1", "--kernel", kernel
        )
        assert code == 1
        assert "alpha must lie in (0, 2)" in err
        assert out == ""

    def test_zeta_below_quadrature_range_exits_2(self, capsys, monkeypatch):
        """The range is checked before any stream is seeded or drawn from,
        however many draws are asked for."""
        calls = []
        real = jumpvol.stable.sample_stable_increment
        spy = lambda *a: calls.append(a) or real(*a)
        monkeypatch.setattr(jumpvol.stable, "sample_stable_increment", spy)
        args = ["--alpha", "1.5", "--zeta", "1e-300", "--draws", "100000000"]
        code, out, err = run_cli(capsys, "dzeta", *args)
        assert code == 2
        assert "outside the quadrature's range" in err
        assert out == ""
        assert calls == []

    def test_one_fork_map_per_command(self, capsys, monkeypatch):
        """The quadratures and the Monte Carlo pieces are items of one map."""
        calls = []
        fork_map = jumpvol.stable.fork_map

        def counting(fn, items):
            calls.append(items)
            return fork_map(fn, items)

        monkeypatch.setattr(jumpvol.stable, "fork_map", counting)
        args = ["--alpha", "1.5", "--zeta", "0.1,0.01,0.001", "--draws", "100000"]
        code, out, _ = run_cli(capsys, "dzeta", *args)
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        assert len(calls) == 1
        assert len(calls[0]) == 3 + 7  # three quadratures, then 7 pieces


class TestNonFiniteParameters:
    """nan and inf model and estimator parameters exit 1 with an error line."""

    PATH_CSV = "i,t,x\n0,0.0,0.0\n1,0.5,0.01\n2,1.0,0.03\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sigma", "nan"], "sigma must be finite, got nan"),
            (["--gamma", "nan", "--alpha", "1.5"], "gamma must be finite, got nan"),
            (["--drift", "inf"], "drift must be finite, got inf"),
        ],
    )
    def test_simulate(self, capsys, args, message):
        code, out, err = run_cli(capsys, "simulate", "--n", "5", *args)
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--k", "nan"], "k must be positive and finite, got nan"),
            (["--k", "inf"], "k must be positive and finite, got inf"),
            (["--M", "nan"], "M must be finite and exceed"),
            (["--M", "inf"], "M must be finite and exceed"),
            (["--M", "1.5"], "M must be finite and exceed"),
            (["--M", "1e200"], "M must be finite and exceed 3/2, with 4 M^2 finite"),
        ],
    )
    def test_estimate(self, capsys, tmp_path, args, message):
        p = tmp_path / "p.csv"
        p.write_text(self.PATH_CSV)
        base = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "1.5"]
        code, out, err = run_cli(capsys, *base, "--gamma", "1", *args)
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("k = nan", "k must be positive and finite, got nan"),
            # M is the one of the cancelled estimate's composite kernel
            ("k = 2\nM = nan", "M must be finite and exceed 3/2, got nan"),
            ("k = 2\nM = 1e200", "M must be finite and exceed 3/2, with 4 M^2"),
        ],
    )
    def test_config_simulates_nothing(self, capsys, tmp_path, draws, line, message):
        """The config is refused as it loads, before any replicate is drawn."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestMcTable.CFG.replace("k = 2", line))
        out = tmp_path / "t.csv"
        args = ["mc-table", "--config", str(cfg), "--out", str(out)]
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err.startswith("error:") and message in err
        assert draws == []
        assert not out.exists()

    def test_missing_output_path_simulates_nothing(self, capsys, tmp_path, draws):
        """With no --out and no csv key, mc-table refuses before drawing."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestMcTable.CFG)
        code, out, err = run_cli(capsys, "mc-table", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "no output path" in err
        assert out == ""
        assert draws == []


class TestNegativeSeed:
    """numpy seeds only from non-negative integers; -1 is a usage error, not a crash."""

    CFG = TestMcTable.CFG

    @pytest.mark.parametrize("command", ["simulate", "mc-table", "rate-check", "dzeta"])
    def test_seed_flag_exits_1(self, capsys, tmp_path, command):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG + "n_grid = 50 100 200 400\n")
        extra = {
            "simulate": ["--n", "10"],
            "mc-table": ["--config", str(cfg), "--out", str(tmp_path / "t.csv")],
            "rate-check": ["--config", str(cfg)],
            "dzeta": ["--alpha", "1.5", "--zeta", "0.1", "--draws", "100"],
        }[command]
        code, out, err = run_cli(capsys, command, *extra, "--seed", "-1")
        assert code == 1
        assert err.startswith("error:") and "seed must be non-negative" in err
        assert "Traceback" not in err
        assert out == ""

    def test_config_seed_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG.replace("seed = 5", "seed = -1"))
        out = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "mc-table", "--config", str(cfg), "--out", str(out)
        )
        assert code == 1
        assert err.startswith("error:") and "seed must be non-negative" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestModuleEntryPoints:
    """`python -m jumpvol` and `python -m jumpvol.cli` run the CLI from a checkout."""

    @pytest.mark.parametrize("module", ["jumpvol", "jumpvol.cli"])
    def test_missing_config_exits_1(self, module):
        src = str(Path(jumpvol.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", module, "mc-table", "--config", "/nonexistent.cfg"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr


# `jumpvol -h` and `jumpvol dzeta -h` at 80 columns, as the parser gave
# them when it was built anew for every command.
HELP = {
    "-h": """\
usage: jumpvol [-h] {simulate,estimate,mc-table,rate-check,dzeta} ...

Jump-diffusion volatility toolkit

positional arguments:
  {simulate,estimate,mc-table,rate-check,dzeta}
    simulate            dump one simulated path as CSV
    estimate            run the estimators on a path CSV
    mc-table            run a Monte Carlo experiment from a config
    rate-check          fit the bias decay rate per config cell
    dzeta               evaluate d(zeta) by MC, quadrature, asymptotics

options:
  -h, --help            show this help message and exit
""",
    "dzeta -h": """\
usage: jumpvol dzeta [-h] [--seed SEED] [--out OUT] --alpha ALPHA --zeta ZETA
                     [--kernel {phi,composite}] [--M M] [--draws DRAWS]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT
  --alpha ALPHA
  --zeta ZETA           one or more values, comma separated
  --kernel {phi,composite}
  --M M
  --draws DRAWS
""",
}


class TestParser:
    """The parser is built once per process and gives the same help."""

    @pytest.mark.parametrize("argv", sorted(HELP))
    def test_help_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):  # the second from the parser already built
            with pytest.raises(SystemExit) as exited:
                cli(argv.split())
            assert exited.value.code == 0
            assert capsys.readouterr().out == HELP[argv]

    def test_two_commands_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        try:
            for _ in range(2):
                assert cli(["simulate", "--n", "3"]) == 0
        finally:
            build_parser.cache_clear()
        assert built.count("jumpvol") == 1
        assert len(built) == 6  # the parser and its five subcommands
        assert capsys.readouterr().out.count("i,t,x") == 2


class TestNotUtf8:
    """A config or path CSV that is not UTF-8 exits 1 with an error line that
    names the file, not a traceback."""

    @pytest.mark.parametrize("command", ["mc-table", "rate-check", "estimate"])
    def test_exits_1(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n = 300\n\xff\x8f\xc3(\n[cell]\n")
        args = {
            "mc-table": ["--config", str(bad), "--out", str(tmp_path / "t.csv")],
            "rate-check": ["--config", str(bad)],
            "estimate": ["--in", str(bad), "--beta", "0.2", "--alpha", "1.5"],
        }[command]
        if command == "estimate":
            args += ["--gamma", "1"]
        code, out, err = run_cli(capsys, command, *args)
        assert code == 1
        assert err == f"error: {bad} is not UTF-8 text: invalid start byte\n"
        assert out == ""
        assert not (tmp_path / "t.csv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[str]:
    """The `jumpvol ...` lines of the first code block under README's `## CLI`."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("jumpvol ")]


def test_readme_cli_examples_parse():
    """Every example parses with the CLI's own parser; none is run."""
    examples = readme_cli_examples()
    assert len(examples) >= 6
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])
