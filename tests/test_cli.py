"""Tests for the command-line interface: subcommands, exit codes, plumbing."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpvol
from jumpvol import EstimatorConfig, parse_kernel, tqv
from jumpvol.cli import cli
from jumpvol.harness import path_from_csv


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        """simulate | estimate equals in-process estimation bit-exactly."""
        out = tmp_path / "p.csv"
        run_cli(
            capsys,
            "simulate",
            "--n",
            "100",
            "--gamma",
            "1",
            "--alpha",
            "1.5",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        code, text, _ = run_cli(
            capsys,
            "estimate",
            "--in",
            str(out),
            "--beta",
            "0.2",
            "--k",
            "2",
            "--alpha",
            "1.5",
            "--gamma",
            "1",
        )
        assert code == 0
        printed = float(text.splitlines()[0].split("=")[1])
        path = path_from_csv(out.read_text())
        cfg = EstimatorConfig(beta=0.2, k=2.0, kernel=parse_kernel("phi", 1.5))
        assert printed == tqv(path, cfg)

    def test_kernel_m_disagreeing_with_m_rejected(self, capsys, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("i,t,x\n0,0.0,0.0\n1,0.5,0.01\n2,1.0,0.03\n")
        args = ["estimate", "--in", str(p), "--beta", "0.2", "--alpha", "0.5"]
        args += ["--gamma", "3", "--kernel", "psi:M=6"]
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert "disagrees with M" in err
        code, _, _ = run_cli(capsys, *args, "--M", "6")
        assert code == 0

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

    @pytest.mark.parametrize("kernel", ["phi:Q=3", "composite:c=3,M=4"])
    def test_unknown_kernel_parameter_exits_1(self, capsys, kernel):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", "1.5", "--zeta", "0.1", "--kernel", kernel
        )
        assert code == 1
        assert "unknown kernel parameter" in err
        assert out == ""

    @pytest.mark.parametrize("kernel", ["phi", "composite"])
    @pytest.mark.parametrize("alpha", ["0", "2", "nan"])
    def test_alpha_out_of_range_exits_1(self, capsys, alpha, kernel):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", alpha, "--zeta", "0.1", "--kernel", kernel
        )
        assert code == 1
        assert "alpha must lie in (0, 2)" in err
        assert out == ""

    def test_zeta_below_quadrature_range_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "dzeta", "--alpha", "1.5", "--zeta", "1e-300", "--draws", "100"
        )
        assert code == 2
        assert "outside the quadrature's range" in err
        assert out == ""


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
