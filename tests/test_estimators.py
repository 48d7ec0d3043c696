"""Tests for the truncated quadratic variation and its corrections."""

import dataclasses

import numpy as np
import pytest

from jumpvol import (
    DiagnosticError,
    EstimatorConfig,
    JumpLaw,
    Kernel,
    ModelSpec,
    ParameterError,
    jump_bias,
    kernel_moment,
    rate_fit,
    richardson,
    richardson_paired,
    simulate_path,
    tqv,
)
from jumpvol.estimators import estimates, fit_power_law, stacked_estimates
from jumpvol.kernels import cancelling_kernel, phi
from jumpvol.levy import block_rows, sample_stable_increment, simulate_increments


def make_path(values):
    """The increments of a path observed at these values."""
    return np.diff(values)


class TestEstimatorConfig:
    def test_rejects_beta_out_of_range(self):
        for beta in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ParameterError):
                EstimatorConfig(beta=beta)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            EstimatorConfig(beta=0.2, k=0.0)

    def test_threshold(self):
        cfg = EstimatorConfig(beta=0.25, k=2.0)
        assert cfg.threshold(16) == pytest.approx(1.0)

    def test_sets_no_kernel(self):
        """Q_n's kernel is always phi; the config holds its threshold only."""
        assert [f.name for f in dataclasses.fields(EstimatorConfig)] == ["beta", "k"]
        with pytest.raises(TypeError):
            EstimatorConfig(beta=0.2, kernel=Kernel(c=-0.5))


class TestTqv:
    def test_increment_outside_support(self):
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        thr = cfg.threshold(10)
        obs = np.zeros(11)
        obs[5:] = 3.0 * thr
        assert tqv(make_path(obs), cfg) == 0.0

    def test_equals_rv_when_all_small(self):
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        thr = cfg.threshold(10)
        rng = np.random.default_rng(0)
        obs = np.cumsum(np.r_[0.0, rng.uniform(-thr / 4, thr / 4, 10)])
        p = make_path(obs)
        assert tqv(p, cfg) == np.sum(p**2)

    def test_dominated_by_rv(self):
        cfg = EstimatorConfig(beta=0.3, k=1.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        for s in range(5):
            p = simulate_path(model, 300, s)
            assert 0.0 <= tqv(p, cfg) <= np.sum(p**2)

    def test_sign_flip_invariance(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.2))
        p = simulate_path(model, 300, 3)
        flipped = make_path(np.r_[0.0, np.cumsum(-p)])
        assert tqv(flipped, cfg) == pytest.approx(tqv(p, cfg), rel=1e-12)

    def test_monotone_in_k(self):
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        p = simulate_path(model, 400, 11)
        vals = [
            tqv(p, EstimatorConfig(beta=0.2, k=k)) for k in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_finite_increment_outside_support(self):
        """A huge increment contributes exactly zero, with no overflow artifacts."""
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        obs = np.zeros(11)
        obs[5:] = 1e300
        assert tqv(make_path(obs), cfg) == 0.0

    def test_infinite_increment_drops_only_itself(self):
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        dx = np.full(10, 0.01)
        dx[4] = np.inf
        assert tqv(dx, cfg) == pytest.approx(9 * 0.01**2, rel=1e-12)

    def test_sees_simulated_increments_after_huge_jumps(self):
        """At alpha = 0.1 one jump can exceed the Brownian increments by many
        orders of magnitude; tqv must still sum over the increments that were
        simulated, not over differences of their rounded cumulative sum."""
        n, alpha = 700, 0.1
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha))
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        for seed in range(20):
            gen = np.random.default_rng(seed)
            brownian = np.sqrt(1.0 / n) * gen.standard_normal(n)
            dx = brownian + sample_stable_increment(alpha, 1.0 / n, gen, n)
            kv = phi(dx / cfg.threshold(n))
            with np.errstate(over="ignore", invalid="ignore"):
                expected = float(np.sum(np.where(kv != 0.0, dx * dx * kv, 0.0)))
            assert tqv(simulate_path(model, n, seed), cfg) == pytest.approx(
                expected, rel=1e-12
            ), f"seed {seed}"


def scaled_exactly(c, u):
    """An increment dx with dx / u == c exactly, searched within 20 ulps of c * u."""
    for direction in (np.inf, -np.inf):
        dx = c * u
        for _ in range(20):
            if dx / u == c:
                return dx
            dx = np.nextafter(dx, direction)
    raise AssertionError(f"no increment maps to {c} under division by {u}")


def dense_sums(dx, kernel, u):
    """sum dx * dx * K(dx / u) over the last axis, taking a term as 0 where
    K is 0: the truncated sum without `kernels.truncation_pass`."""
    with np.errstate(over="ignore", invalid="ignore"):
        kv = kernel(dx / u)
        return np.where(kv != 0.0, dx * dx * kv, 0.0).sum(axis=-1)


class TestEstimates:
    """Each row's (Q_n, Q_n - bias, Q_nc) equals the dense sums bit for bit."""

    ALPHA, GAMMA = 1.5, 1.0

    def block(self, config, M):
        n = 40
        u = config.threshold(n)
        gen = np.random.default_rng(8)
        dx = u * gen.uniform(-1.2 * max(2.0, M), 1.2 * max(2.0, M), (30, n))
        dx[:10] *= 0.3
        dx[0, :3] = [np.inf, np.nan, 1e200]
        dx[1, :3] = [-np.inf, np.nan, -1e200]
        for i, c in enumerate((1.0, 1.5, 2.0, M)):
            dx[2, i] = scaled_exactly(c, u)
            dx[3, i] = -dx[2, i]
        return dx

    @pytest.mark.parametrize("M", [4.0, 1.8])
    def test_rows_equal_per_path_estimators(self, M):
        config = EstimatorConfig(beta=0.25, k=1.0)
        block = self.block(config, M)
        values = estimates(block, config, self.ALPHA, self.GAMMA, M)
        assert values.shape == (len(block), 3)
        n = block.shape[1]
        u = config.threshold(n)
        bias = jump_bias(self.ALPHA, config.beta, self.GAMMA, config.k, n)
        q_n = dense_sums(block, phi, u)
        q_nc = dense_sums(block, cancelling_kernel(self.ALPHA, M), u)
        expected = np.stack((q_n, q_n - bias, q_nc), axis=-1)
        np.testing.assert_array_equal(values, expected)
        for row, got in zip(block, values):
            assert tqv(row, config) == got[0]
            one_row = estimates(row, config, self.ALPHA, self.GAMMA, M)
            np.testing.assert_array_equal(one_row, got)
        assert np.isfinite(values).all()

    def test_increment_near_largest_double_warns_nothing(self):
        """Dividing such an increment by u_n overflows to inf, outside every
        kernel's support; the suite turns a leaked RuntimeWarning into an error."""
        path = np.array([0.01, 1.7e308, 0.02])
        config = EstimatorConfig(beta=0.2)
        expected = 0.01**2 + 0.02**2
        assert tqv(path, config) == expected
        values = estimates(path, config, self.ALPHA, self.GAMMA, 4.0)
        assert values[0] == values[2] == expected


class TestStackedEstimates:
    """Each cell of a stack, with its own config, alpha, gamma and M, gets
    the estimates of that cell alone bit for bit."""

    CELLS = (
        (EstimatorConfig(beta=0.25, k=1.0), 1.5, 1.0, 4.0),
        (EstimatorConfig(beta=0.2, k=3.0), 0.5, 0.0, 6.0),
        (EstimatorConfig(beta=0.4, k=2.0), 1.9, 3.0, 1.8),
    )

    def stack(self, rows):
        gen = np.random.default_rng(4)
        dx = gen.standard_normal((len(self.CELLS), rows, 50)) / np.sqrt(50)
        jumps = gen.random(dx.shape) < 0.1
        dx[jumps] *= gen.uniform(2.0, 40.0, jumps.sum())
        dx[1] /= 4.0  # a jump-free cell
        dx[0, 0, :3] = [np.inf, np.nan, 1e155]
        return dx

    @pytest.mark.parametrize("rows", [1, 7])
    def test_cells_equal_one_cell_estimates(self, rows):
        dx = self.stack(rows)
        values = stacked_estimates(dx, self.CELLS)
        assert values.shape == (len(self.CELLS), rows, 3)
        for block, cell, got in zip(dx, self.CELLS, values):
            np.testing.assert_array_equal(got, estimates(block, *cell))
            for row, one in zip(block, got):
                np.testing.assert_array_equal(estimates(row, *cell), one)
        assert np.isfinite(values).all()

    def test_one_cell_per_leading_index(self):
        with pytest.raises(ParameterError, match="2 cells for a stack of 3"):
            stacked_estimates(self.stack(2), self.CELLS[:2])


class TestEmptyIncrements:
    """An empty increments array, or paths of one increment, are refused
    where they enter, whatever gamma."""

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
    def test_estimates(self, gamma, shape):
        config = EstimatorConfig(beta=0.2)
        with pytest.raises(ParameterError, match="paths of at least 2 entries"):
            estimates(np.zeros(shape), config, 1.5, gamma, 4.0)

    @pytest.mark.parametrize("shape", [(0,), (2, 2), ()])
    def test_tqv_takes_one_non_empty_vector(self, shape):
        with pytest.raises(ParameterError, match="a vector of at least 2 entries"):
            tqv(np.zeros(shape), EstimatorConfig(beta=0.2))

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(1,), (4, 1)])
    def test_estimates_refuses_one_increment_paths(self, gamma, shape):
        """Refused where the increments enter, at gamma 0 too, where no
        jump bias is computed."""
        config = EstimatorConfig(beta=0.2)
        with pytest.raises(ParameterError, match="paths of at least 2 entries"):
            estimates(np.full(shape, 0.3), config, 1.5, gamma, 4.0)

    def test_tqv_refuses_one_increment(self):
        with pytest.raises(ParameterError, match="a vector of at least 2 entries"):
            tqv(np.array([0.3]), EstimatorConfig(beta=0.2))


class TestJumpBias:
    def test_gamma_zero(self):
        assert jump_bias(1.5, 0.2, 0.0, 2.0, 700) == 0.0

    def test_power_law_scaling(self):
        b_n = jump_bias(1.2, 0.3, 1.0, 2.0, 500)
        b_2n = jump_bias(1.2, 0.3, 1.0, 2.0, 1000)
        assert b_2n == pytest.approx(b_n * 2.0 ** (-0.3 * 0.8), rel=1e-12)

    def test_composition(self):
        # n^(-beta(2-alpha)) * C * |gamma|^alpha * k^(2-alpha) * moment, with
        # C = 1 for the simulated law's normalization
        val = jump_bias(1.0, 0.2, 1.0, 1.0, 700)
        expected = 700 ** (-0.2) * kernel_moment(Kernel(), 1.0)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            jump_bias(2.5, 0.2, 1.0, 1.0, 700)
        with pytest.raises(ParameterError):
            jump_bias(1.0, 0.2, 1.0, 1.0, 1)


class TestCorrectedTqv:
    """The corrected estimate: column 1 of `estimates`, Q_n minus the jump bias."""

    def test_gamma_zero_identity(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        p = simulate_path(ModelSpec(sigma=1.0), 200, 5)
        q_n, q_corrected, _ = estimates(p, cfg, 1.5, 0.0, 4.0)
        assert q_corrected == q_n == tqv(p, cfg)

    def test_exact_decomposition(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.2))
        p = simulate_path(model, 300, 7)
        q_n, q_corrected, _ = estimates(p, cfg, 1.2, 1.0, 4.0)
        assert q_corrected == q_n - jump_bias(1.2, 0.2, 1.0, 2.0, 300)


class TestCancelledKernelTqv:
    """The cancelled estimate Q_nc: column 2 of `estimates`."""

    def test_small_increments_equal_rv(self):
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        thr = cfg.threshold(10)
        rng = np.random.default_rng(1)
        obs = np.cumsum(np.r_[0.0, rng.uniform(-thr / 4, thr / 4, 10)])
        p = make_path(obs)
        q_nc = estimates(p, cfg, 1.2, 1.0, 4.0)[2]
        assert q_nc == np.sum(p**2)

    def test_decomposition_vs_psi_sum(self):
        """Q_nc - Q_n = c_tilde * sum (dX)^2 psi(dX / thr)."""
        from jumpvol import c_tilde
        from jumpvol.kernels import psi

        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        p = simulate_path(model, 300, 9)
        alpha, M = 1.5, 4.0
        q_n, _, q_nc = estimates(p, cfg, alpha, 1.0, M)
        thr = cfg.threshold(p.size)
        psi_sum = float(np.sum(p**2 * psi(p / thr, M)))
        assert q_nc - q_n == pytest.approx(c_tilde(alpha, M) * psi_sum, rel=1e-10)


class TestRichardson:
    def test_fixed_point(self):
        assert richardson(3.7, 3.7, 1.5, 0.3) == pytest.approx(3.7)

    def test_annihilates_power_term(self):
        sigma_sq, C, alpha, beta, n = 2.0, 5.0, 1.5, 0.3, 400
        q_n = sigma_sq + C * n ** (-beta * (2 - alpha))
        q_2n = sigma_sq + C * (2 * n) ** (-beta * (2 - alpha))
        assert richardson(q_n, q_2n, alpha, beta) == pytest.approx(
            sigma_sq, rel=1e-12
        )

    def test_rejects_degenerate_factor(self):
        with pytest.raises(ParameterError):
            richardson(1.0, 1.0, 2.0, 0.3)

    def test_paired_shares_path(self):
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        cfg = EstimatorConfig(beta=0.3, k=2.0)
        a = richardson_paired(model, cfg, 1.5, 128, 77)
        b = richardson_paired(model, cfg, 1.5, 128, 77)
        assert a == b


class TestFitPowerLaw:
    def test_exact_recovery(self):
        ns = np.array([100, 200, 400, 800, 1600])
        slope = 0.37
        biases = 3.0 * (1.0 / ns) ** slope
        fitted, stderr = fit_power_law(ns, biases)
        assert fitted == pytest.approx(slope, abs=1e-10)
        assert stderr < 1e-10

    def test_refuses_nonpositive(self):
        """A non-positive or NaN bias is refused, naming its n, not dropped."""
        ns = np.array([100, 200, 400, 800, 1600])
        biases = 3.0 * (1.0 / ns) ** 0.25
        biases[2], biases[3], biases[4] = -1.0, 0.0, np.nan
        with pytest.raises(DiagnosticError, match=r"n = \[400, 800, 1600\]"):
            fit_power_law(ns, biases)

    def test_too_few_points(self):
        with pytest.raises(DiagnosticError, match="need at least 3"):
            fit_power_law([100, 200], [1.0, 0.5])
        with pytest.raises(DiagnosticError):
            fit_power_law([100, 200, 400], [1.0, -1.0, -1.0])


class TestRateFit:
    def test_grid_validation(self):
        model = ModelSpec(sigma=1.0)
        cfg = EstimatorConfig(beta=0.2)
        for grid in ([100, 200], [100, 110, 120, 130]):
            with pytest.raises(ParameterError, match="n grid must have"):
                rate_fit(model, cfg, grid, 5, 0)
        for grid in ([0, 100, 200, 1600], [1, 100, 200, 1600], [-5, 10, 20, 40]):
            with pytest.raises(ParameterError, match="at least 2"):
                rate_fit(model, cfg, grid, 5, 0)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_rejects_replicates_below_1(self, replicates):
        with pytest.raises(ParameterError, match="replicates must be >= 1"):
            rate_fit(
                ModelSpec(sigma=1.0),
                EstimatorConfig(beta=0.2),
                [100, 200, 400, 800],
                replicates,
                0,
            )

    def test_small_budget_run(self):
        """A cheap run recovers beta*(2-alpha) loosely; tight checks are in acceptance."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 0.5))
        cfg = EstimatorConfig(beta=0.2, k=3.0)
        slope, _ = rate_fit(model, cfg, [100, 200, 400, 800], 60, 5)
        assert slope == pytest.approx(0.3, abs=0.25)

    @pytest.mark.parametrize(
        "kind, alpha, want",
        [
            ("stable", 1.5, "(0.10577096080361172, 0.02399466510858482)"),
            ("tempered", 0.7, "(0.08583579338731881, 0.12758647349012361)"),
        ],
    )
    def test_fits_are_pinned(self, kind, alpha, want):
        """(slope, stderr) to the last bit, so that the blocks' draws move
        only on purpose; 45 replicates are a whole block and a short one at
        n = 400, and one short block at every smaller n."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw(kind, alpha))
        cfg = EstimatorConfig(beta=0.2, k=3.0)
        assert repr(rate_fit(model, cfg, [50, 100, 200, 400], 45, 13)) == want

    @pytest.mark.parametrize("kind", ["stable", "tempered"])
    def test_equals_per_path_loop(self, kind):
        """The block pass gives bit for bit what a per-path tqv loop over the
        rows of each block gives, block b of n drawn from stream (seed, n, b);
        the replicate counts are not a multiple of the block's rows."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw(kind, 0.7))
        cfg = EstimatorConfig(beta=0.2, k=3.0)
        grid, reps, seed = [50, 100, 200, 400], 100, 11
        biases = []
        for n in grid:
            step, q = block_rows(n), []
            for b, lo in enumerate(range(0, reps, step)):
                rows = min(step, reps - lo)
                block = simulate_increments(model, n, rows, (seed, n, b))
                q += [tqv(row, cfg) for row in block]
            assert len(q) == reps and reps % step != 0
            biases.append(float(np.mean(q)) - 1.0)
        assert rate_fit(model, cfg, grid, reps, seed) == fit_power_law(grid, biases)

    def test_maps_one_item_per_block(self, monkeypatch):
        """The items of rate_fit's one fork_map are the (group, block) pairs
        of the blocks of every n, one group per n, in n order."""
        from jumpvol import harness

        calls = []
        real = harness.fork_map

        def spy(fn, items):
            calls.append(list(items))
            return real(fn, items)

        monkeypatch.setattr(harness, "fork_map", spy)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 0.7))
        grid, reps = [50, 100, 200, 400], 100
        rate_fit(model, EstimatorConfig(beta=0.2, k=3.0), grid, reps, 11)
        blocks = [
            (g, b)
            for g, n in enumerate(grid)
            for b, _ in enumerate(range(0, reps, block_rows(n)))
        ]
        assert calls == [blocks] and len(blocks) > len(grid)
