"""Tests for the truncated quadratic variation and its corrections."""

import numpy as np
import pytest

from jumpvol import (
    DiagnosticError,
    EstimatorConfig,
    JumpLaw,
    Kernel,
    ModelSpec,
    ParameterError,
    PathSample,
    cancelled_kernel_tqv,
    corrected_tqv,
    jump_bias,
    kernel_moment,
    realized_volatility,
    richardson,
    richardson_paired,
    simulate_path,
    tqv,
)
from jumpvol.estimators import fit_power_law, normalized_errors, rate_fit
from jumpvol.kernels import cancelling_kernel, phi
from jumpvol.levy import sample_stable_increment


def make_path(values):
    return PathSample.from_observations(values)


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


class TestRealizedVolatility:
    def test_constant_path(self):
        assert realized_volatility(make_path(np.zeros(11))) == 0.0

    def test_single_unit_increment(self):
        assert realized_volatility(make_path([0.0, 1.0, 1.0])) == 1.0

    def test_brownian_mean(self):
        model = ModelSpec(sigma=1.0)
        vals = [
            realized_volatility(simulate_path(model, 700, s)) for s in range(500)
        ]
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - 1.0) < 3 * se


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
        assert tqv(p, cfg) == realized_volatility(p)

    def test_dominated_by_rv(self):
        cfg = EstimatorConfig(beta=0.3, k=1.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        for s in range(5):
            p = simulate_path(model, 300, s)
            assert 0.0 <= tqv(p, cfg) <= realized_volatility(p)

    def test_sign_flip_invariance(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.2))
        p = simulate_path(model, 300, 3)
        flipped = make_path(np.r_[0.0, np.cumsum(-p.increments)])
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
        path = PathSample(dx)
        assert tqv(path, cfg) == pytest.approx(9 * 0.01**2, rel=1e-12)

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
            dx = brownian + sample_stable_increment(alpha, 1.0 / n, gen, size=n)
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


class TestNormalizedErrors:
    """Each row's (E1, E2, E3) equals the per-path estimators' errors bit for bit."""

    ALPHA, GAMMA, SIGMA_SQ = 1.5, 1.0, 1.0

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

    @pytest.mark.parametrize(
        "kind, M", [("phi", 4.0), ("psi", 4.0), ("composite", 4.0), ("composite", 1.8)]
    )
    def test_rows_equal_per_path_estimators(self, kind, M):
        kernel = (
            cancelling_kernel(self.ALPHA, M) if kind == "composite" else Kernel(kind, M=M)
        )
        config = EstimatorConfig(beta=0.25, k=1.0, kernel=kernel)
        block = self.block(config, M)
        errors = normalized_errors(
            block, config, self.ALPHA, self.GAMMA, M, self.SIGMA_SQ
        )
        root_n = np.sqrt(block.shape[1])
        for row, got in zip(block, errors):
            path = PathSample(row)
            e1 = (tqv(path, config) - self.SIGMA_SQ) * root_n
            e2 = corrected_tqv(path, config, self.ALPHA, self.GAMMA, self.SIGMA_SQ)
            e3 = cancelled_kernel_tqv(path, config, self.ALPHA, M, self.SIGMA_SQ)
            expected = [e1, e2.normalized_error, e3.normalized_error]
            np.testing.assert_array_equal(got, expected)
        assert np.isfinite(errors).all()


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
        expected = 700 ** (-0.2) * kernel_moment(Kernel("phi"), 1.0)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            jump_bias(2.5, 0.2, 1.0, 1.0, 700)
        with pytest.raises(ParameterError):
            jump_bias(1.0, 0.2, 1.0, 1.0, 1)


class TestCorrectedTqv:
    def test_gamma_zero_identity(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        p = simulate_path(ModelSpec(sigma=1.0), 200, 5)
        res = corrected_tqv(p, cfg, 1.5, 0.0)
        assert res.final_estimate == res.q_n == tqv(p, cfg)

    def test_exact_decomposition(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.2))
        p = simulate_path(model, 300, 7)
        res = corrected_tqv(p, cfg, 1.2, 1.0)
        assert res.final_estimate + res.correction_applied == res.q_n

    def test_normalized_error(self):
        cfg = EstimatorConfig(beta=0.2, k=2.0)
        p = simulate_path(ModelSpec(sigma=1.0), 100, 2)
        res = corrected_tqv(p, cfg, 1.5, 0.0, sigma_sq=1.0)
        assert res.normalized_error == pytest.approx(
            (res.final_estimate - 1.0) * 10.0
        )


class TestCancelledKernelTqv:
    def test_small_increments_equal_rv(self):
        cfg = EstimatorConfig(beta=0.2, k=1.0)
        thr = cfg.threshold(10)
        rng = np.random.default_rng(1)
        obs = np.cumsum(np.r_[0.0, rng.uniform(-thr / 4, thr / 4, 10)])
        p = make_path(obs)
        res = cancelled_kernel_tqv(p, cfg, alpha=1.2, M=4.0)
        assert res.final_estimate == realized_volatility(p)

    def test_decomposition_vs_psi_sum(self):
        """Q_nc - Q_n = c_tilde * sum (dX)^2 psi(dX / thr)."""
        from jumpvol import c_tilde
        from jumpvol.kernels import psi

        cfg = EstimatorConfig(beta=0.2, k=2.0)
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5))
        p = simulate_path(model, 300, 9)
        alpha, M = 1.5, 4.0
        q_n = tqv(p, cfg)
        q_nc = cancelled_kernel_tqv(p, cfg, alpha, M).final_estimate
        thr = cfg.threshold(p.n)
        psi_sum = float(np.sum(p.increments**2 * psi(p.increments / thr, M)))
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

    def test_drops_nonpositive(self):
        ns = np.array([100, 200, 400, 800, 1600])
        biases = 3.0 * (1.0 / ns) ** 0.25
        biases[2] = -1.0
        fitted, _ = fit_power_law(ns, biases)
        assert fitted == pytest.approx(0.25, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(DiagnosticError):
            fit_power_law([100, 200, 400], [1.0, -1.0, -1.0])


class TestRateFit:
    def test_grid_validation(self):
        model = ModelSpec(sigma=1.0)
        cfg = EstimatorConfig(beta=0.2)
        with pytest.raises(DiagnosticError):
            rate_fit(model, cfg, [100, 200], 5, 0)
        with pytest.raises(DiagnosticError):
            rate_fit(model, cfg, [100, 110, 120, 130], 5, 0)

    def test_small_budget_run(self):
        """A cheap run recovers beta*(2-alpha) loosely; tight checks are in acceptance."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 0.5))
        cfg = EstimatorConfig(beta=0.2, k=3.0)
        slope, _ = rate_fit(model, cfg, [100, 200, 400, 800], 60, 5)
        assert slope == pytest.approx(0.3, abs=0.25)

    @pytest.mark.parametrize("kind", ["stable", "tempered"])
    def test_equals_per_path_loop(self, kind):
        """The block pass gives bit for bit what a per-path tqv loop gives,
        with replicate counts that are not a multiple of the block's rows."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw(kind, 0.7))
        cfg = EstimatorConfig(beta=0.2, k=3.0)
        grid, reps, seed = [50, 100, 200, 400], 100, 11
        biases = []
        for n in grid:
            q = [
                tqv(simulate_path(model, n, np.random.SeedSequence((seed, n, r))), cfg)
                for r in range(reps)
            ]
            biases.append(float(np.mean(q)) - 1.0)
        assert rate_fit(model, cfg, grid, reps, seed) == fit_power_law(grid, biases)
