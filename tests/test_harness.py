"""Tests for config parsing, the Monte Carlo harness, and report emission."""

import csv
import ctypes
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from jumpvol import (
    CellConfig,
    ExperimentConfig,
    Kernel,
    ParameterError,
    cancelling_kernel,
    d_zeta,
    d_zeta_quadrature,
    load_config,
    parse_config,
    run_mc,
    run_rate_experiment,
)
from jumpvol.estimators import EstimatorConfig, estimates, tqv
from jumpvol.harness import (
    REPORT_HEADER,
    McReport,
    path_from_csv,
    path_to_csv,
    replicate_errors,
    report_to_csv,
    report_to_json,
)
from jumpvol import workers
from jumpvol.levy import (
    JumpLaw,
    ModelSpec,
    block_rows,
    draw_jumps,
    form_increments,
    simulate_increments,
    simulate_path,
)
from jumpvol.workers import fork_map

SAMPLE_CFG = """\
# comment line
n = 300
replicates = 10
sigma = 1.0
seed = 42
M = 4
jumps = stable

[cell]
alpha = 1.5
gamma = 1
beta = 0.2
k = 2

[cell]
alpha = 0.5
gamma = 3
beta = 0.2
k = 3
jumps = tempered
"""


class TestParseConfig:
    def test_round_trip_fields(self):
        cfg = parse_config(SAMPLE_CFG)
        assert cfg.n == 300
        assert cfg.replicates == 10
        assert cfg.seed == 42
        assert len(cfg.cells) == 2
        assert cfg.cells[0].alpha == 1.5
        assert cfg.cells[0].jumps == "stable"
        assert cfg.cells[1].jumps == "tempered"
        assert cfg.cells[1].k == 3.0

    def test_global_defaults_inherited(self):
        cfg = parse_config(SAMPLE_CFG)
        assert cfg.cells[0].M == 4.0

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            parse_config("bogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ParameterError):
            parse_config("[experiment]\n")

    def test_missing_cell_key(self):
        with pytest.raises(ParameterError):
            parse_config("[cell]\nalpha = 1.0\n")

    def test_bad_value(self):
        with pytest.raises(ParameterError):
            parse_config("n = seven\n")

    def test_cell_validation_upfront(self):
        bad = "[cell]\nalpha = 1.0\ngamma = 1\nbeta = 0.8\nk = 2\n"
        with pytest.raises(ParameterError):
            parse_config(bad)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            parse_config(SAMPLE_CFG.replace("seed = 42", "seed = -1"))

    def test_n_grid(self):
        cell = "[cell]\nalpha = 1.5\ngamma = 1\nbeta = 0.2\nk = 2\n"
        cfg = parse_config("n_grid = 100 200 400 800\n" + cell)
        assert cfg.n_grid == (100, 200, 400, 800)

    def test_repeated_global_key_last_wins(self):
        """perfbench's tiny runs append `replicates` after a config's own."""
        text = SAMPLE_CFG.replace("n = 300\n", "n = 100\nn = 300\n")
        assert parse_config(text).n == 300

    def test_repeated_cell_key_rejected(self):
        """Within one [cell]; a cell key may still override a global default."""
        text = SAMPLE_CFG.replace("alpha = 1.5\n", "alpha = 1.5\nalpha = 0.5\n")
        with pytest.raises(ParameterError, match="line 11: alpha already set on line 10"):
            parse_config(text)

    @pytest.mark.parametrize("kind", ["psi", "composite"])
    def test_kernel_takes_cell_m(self, kind):
        """A kernel with a psi part built for a cell, phi + psi_M or E3's
        composite, gets a global M or the cell's own."""

        def build(cell):
            if kind == "psi":
                return Kernel(c=1.0, M=cell.M)
            return cancelling_kernel(cell.alpha, cell.M)

        text = SAMPLE_CFG.replace("M = 4", "M = 6")
        for cell in parse_config(text).cells:
            assert cell.M == 6.0
            assert build(cell).M == 6.0
            assert build(cell).support_radius == 6.0
        text = SAMPLE_CFG.replace("k = 2\n", "k = 2\nM = 5\n")
        cells = parse_config(text).cells
        assert [build(c).M for c in cells] == [5.0, 4.0]

    @pytest.mark.parametrize(
        "edit",
        [
            ("M = 4", "kernel = composite:M=4\nM = 6", "line 6: unknown global"),
            ("M = 4", "kernel = psi:M=6", "line 6: unknown global"),
            ("k = 2\n", "k = 2\nkernel = composite:M=5\n", "line 14: unknown cell"),
            ("M = 4", "kernel = psi:M=4\nM = 4", "line 6: unknown global"),
        ],
    )
    def test_kernel_m_disagreeing_with_cell_m_rejected(self, edit):
        """M is set by the `M` key alone: a kernel line naming an M, agreeing
        with the `M` key or not, is refused like any other kernel line."""
        old, new, message = edit
        with pytest.raises(ParameterError, match=f"{message} key 'kernel'"):
            parse_config(SAMPLE_CFG.replace(old, new))


COMMITTED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


def test_configs_found():
    assert [p.name for p in COMMITTED_CONFIGS] == [
        "rate_check.cfg",
        "table_beta02.cfg",
        "table_beta049.cfg",
    ]


@pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=lambda p: p.name)
def test_committed_config_loads(path):
    """Every key of a committed config is known and every cell valid."""
    assert load_config(path).cells


class TestRunMc:
    @pytest.fixture
    def small_config(self):
        cells = (CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),)
        return ExperimentConfig(cells=cells, n=200, replicates=16, seed=7)

    def test_deterministic_rerun(self, small_config):
        a = run_mc(small_config)
        b = run_mc(small_config)
        assert report_to_csv(a) == report_to_csv(b)

    def test_rms_identity(self, small_config):
        """rms^2 = mean^2 + variance for the recorded sample moments."""
        res = run_mc(small_config).results[0]
        var = res.stderr_e1**2 * res.replicates
        biased_var = var * (res.replicates - 1) / res.replicates
        assert res.rms_e1**2 == pytest.approx(res.mean_e1**2 + biased_var, rel=1e-9)

    def test_no_jump_cell_errors_coincide(self):
        cells = (CellConfig(alpha=1.0, gamma=0.0, beta=0.2, k=2.0),)
        cfg = ExperimentConfig(cells=cells, n=700, replicates=8, seed=1)
        res = run_mc(cfg).results[0]
        assert res.mean_e2 == pytest.approx(res.mean_e1, rel=1e-12)
        assert res.mean_e3 == pytest.approx(res.mean_e1, rel=1e-6)

    def test_accounting(self, small_config):
        res = run_mc(small_config).results[0]
        assert res.replicates + res.excluded == small_config.replicates

    def test_non_finite_replicates_excluded(self, small_config, monkeypatch):
        """A replicate with a non-finite error is excluded and counted, not averaged."""
        from jumpvol import harness

        clean_estimates = harness.stacked_estimates

        def poisoned(*args):
            values = clean_estimates(*args)
            values[0, 0, 2] = np.inf
            values[0, 1, 0] = np.nan
            return values

        clean = run_mc(small_config).results[0]
        monkeypatch.setattr(harness, "stacked_estimates", poisoned)
        res = run_mc(small_config).results[0]
        assert (res.replicates, res.excluded) == (small_config.replicates - 2, 2)
        assert res.flagged
        assert np.isfinite([res.mean_e1, res.mean_e2, res.mean_e3]).all()
        assert res.mean_e1 != clean.mean_e1

    def test_every_replicate_failed(self, small_config, monkeypatch):
        from jumpvol import NumericalError, harness

        def all_nan(stack, *args):
            return np.full(stack.shape[:-1] + (3,), np.nan)

        monkeypatch.setattr(harness, "stacked_estimates", all_nan)
        with pytest.raises(NumericalError, match="every replicate failed"):
            run_mc(small_config)

    def test_stable_means_are_pinned(self):
        """Two stable cells of one law in two blocks of 23 paths: their E1-E3
        means, to the last bit, so that the stable draw design (normals,
        then uniforms and exponentials) moves only on purpose."""
        cells = tuple(CellConfig(alpha=1.5, gamma=g, beta=0.2, k=2.0) for g in (1, 3))
        cfg = ExperimentConfig(cells=cells, n=700, replicates=46, seed=42)
        means = [repr((r.mean_e1, r.mean_e2, r.mean_e3)) for r in run_mc(cfg).results]
        assert means == [
            "(98.91611422713324, -1.304363521122417, -11.207673235598582)",
            "(492.73455861876255, -28.02631963765215, -73.21222690630344)",
        ]

    def test_tempered_means_are_pinned(self):
        """Two tempered cells of one law in two blocks of 23 paths: their
        E1-E3 means, to the last bit, so that the compound Poisson draws and
        the estimators' pass over them move only on purpose."""
        cells = tuple(
            CellConfig(alpha=0.5, gamma=g, beta=0.2, k=3.0, jumps="tempered")
            for g in (1, 3)
        )
        cfg = ExperimentConfig(cells=cells, n=700, replicates=46, seed=42)
        means = [repr((r.mean_e1, r.mean_e2, r.mean_e3)) for r in run_mc(cfg).results]
        assert means == [
            "(28.473257637967144, -27.385604424846836, 18.11467531318673)",
            "(71.42189713444148, -25.32849001133402, 19.65580162378286)",
        ]

    def test_stage_timings_in_json(self, small_config):
        report = run_mc(small_config)
        payload = json.loads(report_to_json(report))
        for key in ("simulate_s", "estimate_s"):
            assert len(payload[key]) == 1
            assert payload[key][0] > 0.0


def per_path_errors(cfg, cell, g, model=None):
    """(E1, E2, E3) of `cell`'s replicates by the per-path route: block b
    drawn with `model` (the cell's own by default), its unit normals Z from
    the stream (seed, 0, b) of the first group and its jumps J from
    (seed, g, b), where group 0 draws them after Z; then form_increments ->
    estimates.  g is the cell's law group, or for a stable law the group of
    the first stable law, whose stream gives every stable law's J."""
    model = model or cell.model(cfg.sigma)
    step = block_rows(cfg.n)
    errors = []
    for b, lo in enumerate(range(0, cfg.replicates, step)):
        shape = (min(step, cfg.replicates - lo), cfg.n)
        if g == 0:
            block = simulate_increments(model, cfg.n, shape[0], (cfg.seed, 0, b))
        else:
            normals = np.random.default_rng((cfg.seed, 0, b)).standard_normal(shape)
            own = np.random.default_rng((cfg.seed, g, b))
            (jumps,) = draw_jumps([model], [own], shape)
            block = form_increments(model, (normals, jumps), shape)
        est = estimates(block, cell.estimator_config(), cell.alpha, cell.gamma, cell.M)
        errors.append((est - cfg.sigma**2) * np.sqrt(cfg.n))
    return np.concatenate(errors)


class TestLawGroups:
    """The cells of one jump law, (jumps, alpha), share its draws, and every
    law shares the unit normals: group g, in order of first appearance,
    draws the jumps J of block b from (seed, g, b), group 0 after the
    block's normals Z, and each cell estimates the increments it forms from
    the block's parts (Z, J).  Every stable law takes its J from the
    uniforms and exponentials of the first stable law's stream."""

    def test_cells_of_one_law_differ_only_in_gamma(self):
        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.5, gamma=1.0, beta=0.2, k=3.0, jumps="tempered"),
            CellConfig(alpha=1.5, gamma=3.0, beta=0.2, k=2.0),
        )
        reps = 2 * block_rows(200) + 5  # two whole blocks and a short one
        cfg = ExperimentConfig(cells=cells, n=200, replicates=reps, seed=5)
        per_cell, _ = replicate_errors(cfg)
        for (errors, _, _), cell, g in zip(per_cell, cells, (0, 1, 0)):
            np.testing.assert_array_equal(errors, per_path_errors(cfg, cell, g))
        # the law's stage times are split equally between its two cells
        assert per_cell[0][1:] == per_cell[2][1:]

    def test_distinct_laws_keep_one_stream_per_cell(self):
        """Four laws, one cell each: cell i draws its J from (seed, i, b)
        and shares cell 0's Z."""
        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.5, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
            CellConfig(alpha=1.9, gamma=0.0, beta=0.2, k=2.0),
            CellConfig(alpha=1.5, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
        )
        cfg = ExperimentConfig(cells=cells, n=300, replicates=60, seed=9)
        per_cell, _ = replicate_errors(cfg)
        for i, ((errors, _, _), cell) in enumerate(zip(per_cell, cells)):
            np.testing.assert_array_equal(errors, per_path_errors(cfg, cell, i))

    def test_tempered_cells_of_one_law_share_their_parts(self, monkeypatch):
        """Cells gamma 1 and 3 of one tempered law form their increments from
        the same parts (Z, J), both drawn, each cell scaling them itself."""
        from jumpvol import harness

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
        seen = []
        real = harness.form_increments

        def spy(model, parts, shape, out=None):
            seen.append((model.gamma, parts))
            return real(model, parts, shape, out)

        monkeypatch.setattr(harness, "form_increments", spy)
        cells = tuple(
            CellConfig(alpha=0.9, gamma=g, beta=0.2, k=3.0, jumps="tempered")
            for g in (1.0, 3.0)
        )
        cfg = ExperimentConfig(cells=cells, n=200, replicates=block_rows(200) + 5)
        per_cell, _ = replicate_errors(cfg)
        assert [gamma for gamma, _ in seen] == [1.0, 3.0, 1.0, 3.0]
        for (_, one), (_, three) in zip(seen[::2], seen[1::2]):
            assert one is three and all(part is not None for part in one)
        for (errors, _, _), cell in zip(per_cell, cells):
            np.testing.assert_array_equal(errors, per_path_errors(cfg, cell, 0))

    def test_every_law_of_a_block_receives_the_same_normals(self, monkeypatch):
        """Three laws in two blocks: each block's Z is one array, drawn once
        and handed to every law's cells, while each law has its own J."""
        from jumpvol import harness

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
        seen = []
        real = harness.form_increments

        def spy(model, parts, shape, out=None):
            seen.append(parts)
            return real(model, parts, shape, out)

        monkeypatch.setattr(harness, "form_increments", spy)
        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.9, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
            CellConfig(alpha=1.2, gamma=1.0, beta=0.2, k=2.0),
        )
        cfg = ExperimentConfig(cells=cells, n=200, replicates=block_rows(200) + 5)
        replicate_errors(cfg)
        assert len(seen) == 2 * len(cells)
        first, second = seen[:3], seen[3:]
        for block in (first, second):
            assert all(normals is block[0][0] for normals, _ in block)
            assert len({id(jumps) for _, jumps in block}) == len(cells)
        assert first[0][0] is not second[0][0]

    def test_stage_times_add_up_to_the_draws(self, monkeypatch):
        """On a clock that only the draws and the estimates move, the cells'
        simulate_s add up to the blocks' draw time: the first law holds the
        shared Z's, the first stable law the stable laws' shared draw, a
        tempered law its own J's, each split among its cells, and a later
        stable law nothing; and their estimate_s add up to the blocks' one
        estimating call each, split among all cells."""
        from types import SimpleNamespace

        from jumpvol import harness, levy

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # one clock
        clock = [0.0]
        fake = SimpleNamespace(perf_counter=lambda: clock[0], monotonic=time.monotonic)
        monkeypatch.setattr(harness, "time", fake)

        def ticking(module, name, seconds):
            real = getattr(module, name)

            def tick(*args):
                clock[0] += seconds
                return real(*args)

            monkeypatch.setattr(module, name, tick)

        ticking(harness, "draw_normals", 1.0)
        ticking(levy, "_tempered_block", 10.0)
        ticking(levy, "_stable_blocks", 100.0)
        ticking(harness, "stacked_estimates", 1000.0)
        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.9, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
            CellConfig(alpha=1.5, gamma=3.0, beta=0.2, k=2.0),
            CellConfig(alpha=1.2, gamma=1.0, beta=0.2, k=2.0),
        )
        cfg = ExperimentConfig(cells=cells, n=200, replicates=block_rows(200) + 5)
        per_cell, _ = replicate_errors(cfg)
        # two blocks, each of one Z, one stable draw, one tempered J and one
        # estimate of every cell
        simulate_s = [simulate_s for _, simulate_s, _ in per_cell]
        assert simulate_s == [101.0, 20.0, 101.0, 0.0]
        assert sum(simulate_s) == 2 * (1.0 + 100.0 + 10.0)
        assert [estimate_s for _, _, estimate_s in per_cell] == [500.0] * 4
        assert sum(estimate_s for _, _, estimate_s in per_cell) == 2 * 1000.0

    def test_stable_laws_share_the_first_ones_draws(self):
        """Three stable laws after a tempered one: each stable law's J is
        drawn from the first stable law's stream (seed, 1, b), and the
        tempered law keeps its own."""
        cells = (
            CellConfig(alpha=0.9, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=1.0, gamma=3.0, beta=0.2, k=2.0),
            CellConfig(alpha=1.9, gamma=1.0, beta=0.2, k=2.0),
        )
        reps = 2 * block_rows(200) + 5  # two whole blocks and a short one
        cfg = ExperimentConfig(cells=cells, n=200, replicates=reps, seed=8)
        per_cell, _ = replicate_errors(cfg)
        for (errors, _, _), cell, g in zip(per_cell, cells, (0, 1, 1, 1)):
            np.testing.assert_array_equal(errors, per_path_errors(cfg, cell, g))

    def test_one_stable_draw_per_block(self, monkeypatch):
        """One block of table_beta02.cfg draws the uniforms and exponentials
        of its three stable laws in one call each, and its normals once."""
        from jumpvol import harness

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
        calls = []

        class Recording:
            def __init__(self, gen):
                self.gen = gen

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.gen, name)

        real = harness.block_streams

        def recording_streams(*args):
            return [gen and Recording(gen) for gen in real(*args)]

        monkeypatch.setattr(harness, "block_streams", recording_streams)
        configs = Path(__file__).parents[1] / "configs"
        cfg = load_config(str(configs / "table_beta02.cfg"))
        cfg = ExperimentConfig(cells=cfg.cells, n=cfg.n, replicates=block_rows(cfg.n))
        replicate_errors(cfg)
        names = ("random", "standard_exponential", "standard_normal")
        assert [calls.count(name) for name in names] == [1, 1, 1]

    def test_two_laws_means_are_pinned(self):
        """A stable and a tempered law in two blocks of 23 paths: their E1-E3
        means, to the last bit, so that the shared normals (group 0's stream)
        and group 1's jumps, from its own stream, move only on purpose."""
        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.9, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
        )
        cfg = ExperimentConfig(cells=cells, n=700, replicates=46, seed=42)
        means = [repr((r.mean_e1, r.mean_e2, r.mean_e3)) for r in run_mc(cfg).results]
        assert means == [
            "(98.91611422713324, -1.304363521122417, -11.207673235598582)",
            "(138.8751404046427, -41.494249425138335, 42.85041150840108)",
        ]

    def test_two_stable_laws_means_are_pinned(self):
        """Stable laws 1.2 and 1.5 in two blocks of 23 paths: their E1-E3
        means, to the last bit, so that the stable laws' shared uniforms and
        exponentials (group 0's stream, after the normals) move only on
        purpose.  Alpha 1.5 draws what it draws alone as group 0."""
        cells = tuple(
            CellConfig(alpha=a, gamma=1.0, beta=0.2, k=2.0) for a in (1.2, 1.5)
        )
        cfg = ExperimentConfig(cells=cells, n=700, replicates=46, seed=42)
        means = [repr((r.mean_e1, r.mean_e2, r.mean_e3)) for r in run_mc(cfg).results]
        assert means == [
            "(58.7763715550244, -1.9981656393225868, 2.9797186207229798)",
            "(98.91611422713324, -1.304363521122417, -11.207673235598582)",
        ]

    def test_a_table_maps_one_item_per_block(self, monkeypatch):
        """table_beta02.cfg's six laws share each block: its one fork_map
        has 22 items, the blocks of 23 paths of its 500 replicates."""
        from jumpvol import harness

        calls = []
        real = harness.fork_map

        def spy(fn, items):
            calls.append(list(items))
            return real(fn, items)

        monkeypatch.setattr(harness, "fork_map", spy)
        configs = Path(__file__).parents[1] / "configs"
        replicate_errors(load_config(str(configs / "table_beta02.cfg")))
        assert calls == [[(0, b) for b in range(22)]]

    def test_zero_gamma_cell_takes_the_base(self, monkeypatch):
        """A gamma 0 cell of a law with jumps estimates the jump-free draw of
        the same stream, even where J is infinite (0 * inf would be NaN)."""
        from jumpvol import harness

        real = harness.draw_jumps

        def infinite_jump(*args):
            for jumps in real(*args):
                jumps[0, 0] = np.inf
                yield jumps

        monkeypatch.setattr(harness, "draw_jumps", infinite_jump)
        cells = (
            CellConfig(alpha=1.5, gamma=0.0, beta=0.2, k=2.0),
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
        )
        cfg = ExperimentConfig(cells=cells, n=200, replicates=100, seed=3)
        [(zero, _, _), (one, _, _)], _ = replicate_errors(cfg)
        jump_free = ModelSpec(sigma=1.0, gamma=0.0, jump_law=JumpLaw("stable", 1.5))
        want = per_path_errors(cfg, cells[0], 0, jump_free)
        np.testing.assert_array_equal(zero, want)
        # the infinite jump did reach the gamma 1 cell, in row 0 of each block
        moved = (one != per_path_errors(cfg, cells[1], 0)).any(axis=1)
        assert moved.nonzero()[0].tolist() == [0, block_rows(200)]


# The names in `harness` that tests here and in test_cli.py replace with a
# spy or a fault.
SPIED = (
    "stacked_estimates",
    "form_increments",
    "block_streams",
    "draw_normals",
    "draw_jumps",
    "fork_map",
)


@pytest.mark.parametrize("name", SPIED)
def test_every_spied_routine_runs_on_a_valid_config(monkeypatch, name):
    """A positive control for those spies: a valid config's run calls each
    of them through the name the spies replace, and a counting spy leaves
    the report as it was, so no spy passes by seeing no call."""
    from jumpvol import harness

    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
    cfg = parse_config(SAMPLE_CFG)
    want = report_to_csv(run_mc(cfg))
    calls = []
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *a: calls.append(name) or real(*a))
    assert report_to_csv(run_mc(cfg)) == want
    assert calls


# Three cells, stable and tempered, so that the workers share them unevenly.
POOL_CELLS = (
    CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
    CellConfig(alpha=0.5, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
    CellConfig(alpha=1.9, gamma=1.0, beta=0.2, k=2.0),
)
# Keys of the JSON report that are timings or say how the cells ran.
RUN_KEYS = ("wall_time", "simulate_s", "estimate_s", "workers")


class TestCellPool:
    @pytest.fixture
    def at_workers(self, monkeypatch):
        """Run `fork_map` on up to `count` processes, whatever this machine has."""

        def at(count):
            monkeypatch.setattr(workers, "usable_cpus", lambda: count)

        return at

    def test_malloc_thresholds_are_set_once_before_any_item(
        self, at_workers, monkeypatch
    ):
        """fork_map sets glibc's mmap threshold (mallopt -3) to 32 MB and its
        trim threshold (-1) to 64 MB before it runs an item, once per
        process, so every caller of the package gets them."""
        from types import SimpleNamespace

        seen = []

        def mallopt(param, value):
            seen.append((param, value))
            return 1

        fake = SimpleNamespace(
            CDLL=lambda name: SimpleNamespace(mallopt=mallopt), c_int=ctypes.c_int
        )
        at_workers(1)
        monkeypatch.setattr(workers, "ctypes", fake)
        workers._retain_freed_memory.cache_clear()
        try:
            fork_map(seen.append, ["item"])
            fork_map(seen.append, ["item"])
        finally:
            workers._retain_freed_memory.cache_clear()  # the real ones, next
        assert seen == [(-3, 32 << 20), (-1, 64 << 20), "item", "item"]

    def test_workers_are_other_processes(self, at_workers):
        """At one worker the caller runs every item; at w workers the items
        run in at most min(w, items) processes."""
        me = os.getpid()
        at_workers(1)
        assert fork_map(lambda x: os.getpid(), range(3)) == [me] * 3
        for count, items in ((2, 5), (3, 3), (8, 3), (3, 1)):
            at_workers(count)
            pids = fork_map(lambda x: os.getpid(), range(items))
            assert len(pids) == items
            assert len(set(pids)) <= min(count, items)

    def test_slow_item_holds_back_no_other(self, at_workers):
        """Items are handed out on demand: while one process sleeps on item
        0, the other runs the rest."""

        def fn(x):
            if x == 0:
                time.sleep(0.3)
            return os.getpid()

        at_workers(2)
        pids = fork_map(fn, range(6))
        assert pids[0] not in pids[1:]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_more_items_than_tickets(self, at_workers, count):
        """5003 items take 1001 tickets of 5 items, the last one short."""
        items = list(range(5003))
        at_workers(count)
        assert fork_map(lambda x: 3 * x + 1, items) == [3 * x + 1 for x in items]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_keep_item_order(self, at_workers, count):
        at_workers(count)
        items = [3.5, -1.0, 7.25, 0.0, 2.0, 11.0, 5.5]
        assert fork_map(lambda x: (x, x * x), items) == [(x, x * x) for x in items]
        assert fork_map(lambda x: x, []) == []

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_mc_reports_do_not_depend_on_workers(self, at_workers, count):
        cfg = ExperimentConfig(cells=POOL_CELLS, n=200, replicates=200, seed=11)
        payloads = []
        for processes in (1, count):
            at_workers(processes)
            report = run_mc(cfg)
            assert report.workers == processes
            payload = json.loads(report_to_json(report))
            assert payload["workers"] == processes
            for key in RUN_KEYS:
                del payload[key]
            payloads.append((report_to_csv(report), payload))
        assert payloads[0] == payloads[1]

    def test_rate_report_does_not_depend_on_workers(self, at_workers):
        cfg = ExperimentConfig(
            cells=POOL_CELLS, replicates=20, seed=3, n_grid=(50, 100, 200, 400)
        )
        texts = []
        for count in (1, 2, 3):
            at_workers(count)
            texts.append(run_rate_experiment(cfg))
        assert len(texts[0].splitlines()) == 4
        assert texts[0] == texts[1] == texts[2]

    def test_dzeta_mc_does_not_depend_on_workers(self, at_workers):
        """Piece sums are added in piece order, whichever process made them;
        2 * 10^6 + 5000 draws take 123 pieces, the last one short.  The
        quadratures are items of the same map."""
        kernel = cancelling_kernel(1.5, 4.0)
        results = []
        for count in (1, 2, 3):
            at_workers(count)
            results.append(d_zeta([0.1, 0.001], 1.5, 2 * 10**6 + 5000, 9, kernel))
        assert results[0] == results[1] == results[2]
        assert [quad for *_, quad in results[0]] == [
            d_zeta_quadrature(z, 1.5, kernel) for z in (0.1, 0.001)
        ]

    def test_error_raised_in_a_worker_reaches_the_caller(self, at_workers, monkeypatch):
        """Forked workers run the monkeypatched estimates; what one raises is
        raised again, with its type, in the caller."""
        from jumpvol import NumericalError, harness

        def failing(stack, *args):
            raise NumericalError("no estimate in this worker")

        monkeypatch.setattr(harness, "stacked_estimates", failing)
        at_workers(2)
        cfg = ExperimentConfig(cells=POOL_CELLS, n=100, replicates=4)
        with pytest.raises(NumericalError, match="no estimate in this worker"):
            run_mc(cfg)

    @pytest.mark.parametrize("failing_item", [0, 1, 5])
    def test_exception_keeps_its_type(self, at_workers, failing_item):
        """Whichever process runs the failing item, the caller raises its
        exception with its type."""

        def fn(x):
            if x == failing_item:
                raise KeyError(f"item {x}")
            return x

        at_workers(3)
        with pytest.raises(KeyError, match=f"item {failing_item}"):
            fork_map(fn, range(6))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_lowest_failing_item_is_raised(self, at_workers, count):
        """Of two failing items, the lower one's exception is raised, as a
        plain map raises it, at any number of workers."""

        def fn(x):
            if x in (2, 4):
                raise KeyError(f"item {x}")
            return x

        at_workers(count)
        for _ in range(5):
            with pytest.raises(KeyError, match="item 2"):
                fork_map(fn, range(6))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here"
    )
    def test_caller_affinity_is_restored(self, at_workers):
        """Caller and workers end with the mask the caller started with."""
        original = os.sched_getaffinity(0)
        try:
            # start from every CPU this process may be given, not from a
            # mask that some earlier call may have narrowed
            os.sched_setaffinity(0, range(os.cpu_count() or 1))
            before = os.sched_getaffinity(0)
            at_workers(2)
            masks = fork_map(lambda x: os.sched_getaffinity(0), range(4))
            assert os.sched_getaffinity(0) == before
            assert masks == [before] * 4
        finally:
            os.sched_setaffinity(0, original)

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here"
    )
    @pytest.mark.parametrize("count", [2, 3])
    def test_each_child_is_forked_on_its_cpu(self, at_workers, monkeypatch, count):
        """The caller forks child j from the j-th CPU of its mask, so that the
        child is born there, and takes its own share on the first."""
        try:
            sched_getcpu = ctypes.CDLL(None).sched_getcpu
        except (AttributeError, OSError):
            pytest.skip("no sched_getcpu here")
        cpus = sorted(os.sched_getaffinity(0))
        me = os.getpid()
        seen = []  # (what, CPU) in the caller
        fork, pull = os.fork, workers._pull

        def forking():
            seen.append(("fork", sched_getcpu()))
            return fork()

        def pulling(*args):
            if os.getpid() == me:
                seen.append(("pull", sched_getcpu()))
            return pull(*args)

        monkeypatch.setattr(os, "fork", forking)
        monkeypatch.setattr(workers, "_pull", pulling)
        at_workers(count)
        assert fork_map(lambda x: x, range(count)) == list(range(count))
        forks = [("fork", cpus[j % len(cpus)]) for j in range(1, count)]
        assert seen == forks + [("pull", cpus[0])]
        assert os.sched_getaffinity(0) == set(cpus)


class TestEmitReport:
    def make_report(self, n_cells):
        cells = tuple(
            CellConfig(alpha=1.2, gamma=1.0, beta=0.2, k=2.0) for _ in range(n_cells)
        )
        if not cells:
            cfg = ExperimentConfig(
                cells=(CellConfig(alpha=1.2, gamma=1.0, beta=0.2, k=2.0),),
                n=100,
                replicates=1,
            )
            return McReport(config=cfg, results=())
        cfg = ExperimentConfig(cells=cells, n=100, replicates=4, seed=3)
        return run_mc(cfg)

    def test_empty_report_is_header_only(self):
        assert report_to_csv(self.make_report(0)) == REPORT_HEADER + "\n"

    def test_one_cell_two_lines(self):
        text = report_to_csv(self.make_report(1))
        assert len(text.strip().splitlines()) == 2

    def test_header_schema(self):
        assert REPORT_HEADER == (
            "alpha,gamma,beta,k,n,replicates,mean_e1,rms_e1,"
            "mean_e2,mean_e3,stderr_e1,stderr_e2,stderr_e3"
        )

    def test_csv_json_round_trip_equal(self):
        report = self.make_report(2)
        rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
        cells = json.loads(report_to_json(report))["cells"]
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            for key, str_val in row.items():
                assert float(str_val) == pytest.approx(float(cell[key]), rel=1e-15)

    def test_shortest_round_trip_floats(self):
        report = self.make_report(1)
        row = report_to_csv(report).strip().splitlines()[1].split(",")
        assert float(row[6]) == report.results[0].mean_e1

    def test_json_embeds_config(self):
        report = self.make_report(1)
        payload = json.loads(report_to_json(report))
        assert payload["config"]["n"] == 100
        assert payload["config"]["cells"][0]["alpha"] == 1.2


class TestRateExperiment:
    def test_requires_grid(self):
        cells = (CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),)
        cfg = ExperimentConfig(cells=cells, replicates=5)
        with pytest.raises(ParameterError, match="n grid must have"):
            run_rate_experiment(cfg)

    def test_emits_schema(self):
        cells = (CellConfig(alpha=0.5, gamma=1.0, beta=0.2, k=3.0),)
        cfg = ExperimentConfig(
            cells=cells, replicates=20, seed=3, n_grid=(50, 100, 200, 400)
        )
        text = run_rate_experiment(cfg)
        lines = text.strip().splitlines()
        assert lines[0] == "alpha,beta,expected_slope,fitted_slope,stderr"
        fields = lines[1].split(",")
        assert float(fields[2]) == pytest.approx(0.2 * 1.5)


class TestPathCsv:
    def test_round_trip_bit_exact(self):
        """The CSV holds X_0 = 0 and the increments' cumulative sums exactly;
        a loaded path's increments are their differences."""
        path = simulate_path(ModelSpec(sigma=1.0), 50, 9)
        text = path_to_csv(path)
        xs = [float(row["x"]) for row in csv.DictReader(io.StringIO(text))]
        observations = np.concatenate(([0.0], np.cumsum(path)))
        np.testing.assert_array_equal(xs, observations)
        back = path_from_csv(text)
        np.testing.assert_array_equal(back, np.diff(observations))
        assert back.shape == path.shape and back.dtype == float

    def test_written_observations_are_cumulative_sums(self):
        """Huge increments that cancel leave the written path where it was."""
        text = path_to_csv(np.array([1e20, 1.0, -1e20]))
        xs = [float(row["x"]) for row in csv.DictReader(io.StringIO(text))]
        assert xs == [0.0, 1e20, 1e20, 0.0]

    def test_increments_are_differences_as_read(self):
        text = "i,t,x\n0,0.0,1.5\n1,0.5,1e17\n2,1.0,1.75\n"
        back = path_from_csv(text)
        np.testing.assert_array_equal(back, np.diff([1.5, 1e17, 1.75]))

    def test_refuses_observations_too_coarse_for_u_n(self):
        """Given the estimator config, |x| whose doubles are more than
        1e-9 u_n apart is refused; u_n = 2 * 2^-0.2 = 1.74 here."""
        config = EstimatorConfig(beta=0.2, k=2.0)
        coarse = "i,t,x\n0,0.0,0.0\n1,0.5,1e7\n2,1.0,0.03\n"  # spacing 1.9e-9
        fine = coarse.replace("1e7", "1e6")  # spacing 1.2e-10
        with pytest.raises(ParameterError, match="lost digits to rounding"):
            path_from_csv(coarse, config)
        assert path_from_csv(fine, config).shape == (2,)
        assert path_from_csv(coarse).shape == (2,)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_refuses_every_path_whose_tqv_the_csv_moves(self, alpha):
        """simulate -> estimate at n 700, beta 0.2, k 2: every path whose tqv
        moves by more than 1e-6 after the CSV round trip is refused (14 of 20
        at alpha 0.1, with 4 more that move by less), and none at alpha 0.5."""
        config = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha))
        moved, refused = set(), set()
        for seed in range(20):
            path = simulate_path(model, 700, seed)
            text = path_to_csv(path)
            if abs(tqv(path_from_csv(text), config) / tqv(path, config) - 1) > 1e-6:
                moved.add(seed)
            try:
                path_from_csv(text, config)
            except ParameterError:
                refused.add(seed)
        assert moved <= refused
        assert (len(moved), len(refused)) == ((14, 18) if alpha == 0.1 else (0, 0))

    def test_header_required(self):
        with pytest.raises(ParameterError):
            path_from_csv("a,b,c\n0,0,0\n1,0.1,0.2\n2,0.2,0.3\n")

    def test_too_short(self):
        with pytest.raises(ParameterError):
            path_from_csv("i,t,x\n0,0.0,0.0\n1,1.0,1.0\n")


class TestExperimentConfigValidation:
    def test_rejects_zero_replicates(self):
        cells = (CellConfig(alpha=1.0, gamma=1.0, beta=0.2, k=1.0),)
        with pytest.raises(ParameterError):
            ExperimentConfig(cells=cells, replicates=0)

    def test_rejects_bad_cell(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(
                cells=(CellConfig(alpha=3.0, gamma=1.0, beta=0.2, k=1.0),)
            )
