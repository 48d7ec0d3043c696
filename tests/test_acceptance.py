"""Acceptance criteria for the volatility-estimation toolkit.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, then asserts.  Monte Carlo budgets follow the
stated protocols (n = 700, 500 replicates for tables; 2000 replicates for
the rate law), so this module is slow; run it with

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from jumpvol import (
    CellConfig,
    EstimatorConfig,
    ExperimentConfig,
    JumpLaw,
    Kernel,
    ModelSpec,
    c_tilde,
    cancelling_kernel,
    d_zeta,
    d_zeta_quadrature,
    kernel_moment,
    rate_fit,
    richardson_paired,
    run_mc,
    stable_density,
    tail_constant,
)
from jumpvol.kernels import phi, psi
from jumpvol.levy import sample_stable_increment, stable_scale


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def mc_cells(cells, n=700, replicates=500, seed=42):
    cfg = ExperimentConfig(cells=tuple(cells), n=n, replicates=replicates, seed=seed)
    return run_mc(cfg).results


class TestCriterion1:
    def test_table_beta02_stable(self):
        """Mean E1 within 25% of {32.5, 50.3, 261.1, 2311.5}; |mean E2| <= 0.15 mean E1.

        The targets belong to the stable law with Levy density
        (1/2)|z|^(-1-alpha), i.e. tail coefficient C = 1/2 in the first-order
        bias n^(-beta(2-alpha)) C |gamma|^alpha k^(2-alpha) int K(u)|u|^(1-alpha) du:
        with C = 1/2 that formula gives 30.4, 50.1, 261.6 and 2109 for the
        four cells, with no Monte Carlo noise.  The program simulates the law
        with C = 1 (tail_constant).  If L has Levy density |z|^(-1-alpha),
        then a*L has Levy density a^alpha |z|^(-1-alpha), so gamma*L under
        the reference law has the law of gamma*2^(-1/alpha)*L here.  Each
        cell therefore runs at gamma = gamma_ref * 2^(-1/alpha), which also
        makes E2 subtract the reference law's own bias.  Run at gamma_ref
        itself, the gamma = 1 cells give E1 = 59.5, 98.9 and 517.8, twice
        the targets, as the first-order bias with C = 1 predicts.

        The (alpha=1.9, gamma=3) cell passes narrowly but steadily: its E1
        lies about 20% below the target (0.200-0.204 over seeds 1-4) because
        higher-order terms pull the Monte Carlo value (about 1846) below the
        first-order 2109, and |E2|/E1 is 0.141-0.146.
        """
        targets = {(1.2, 1.0): 32.5, (1.5, 1.0): 50.3, (1.9, 1.0): 261.1, (1.9, 3.0): 2311.5}
        cells = [
            CellConfig(
                alpha=a, gamma=g * 2.0 ** (-1.0 / a), beta=0.2, k=2.0, jumps="stable"
            )
            for a, g in targets
        ]
        results = mc_cells(cells)
        ok = True
        parts = []
        for res, cell, ((a, g), target) in zip(results, cells, targets.items()):
            e1_ok = abs(res.mean_e1 - target) <= 0.25 * target
            e2_ok = abs(res.mean_e2) <= 0.15 * res.mean_e1
            ok &= e1_ok and e2_ok
            parts.append(
                f"(a={a},g_ref={g},g={cell.gamma:.4f}): "
                f"E1={res.mean_e1:.1f} vs {target} "
                f"[{'ok' if e1_ok else 'off'}], E2={res.mean_e2:.2f} "
                f"[{'ok' if e2_ok else 'off'}]"
            )
        assert report(1, ok, "; ".join(parts))


class TestCriterion2:
    def test_tempered_cells(self):
        """Mean E1 within 40% of {14.4, 42.4}; |mean E3| <= 1.5.

        Known to fail; the documents do not say which law the targets use.
        The program simulates the documented tempered law, Levy density
        e^(-|z|)|z|^(-1-alpha) scaled by gamma, and agrees with it: at seed
        42 the Monte Carlo E1 is 72.3 +- 1.6 and 140.0 +- 2.0, against the
        noise-free first-order integral sqrt(n) int x^2 K(x/u_n) nu(dx) of
        73.9 and 143.0; E3 is 22.98 +- 2.2 and 47.38 +- 3.4, against 25.0
        and 49.5.  (The two cells have distinct jump laws, so each draws its
        jumps from its own stream, and both take the first one's unit
        normals; in table_beta02.cfg, where each shares its law with a gamma
        1 cell and neither is the first law, the same cells read E1 73.33
        and 146.45, E3 26.40 and 53.48.)  The E1 targets fit the Levy density
        sigma_alpha^(-1) e^(-|z|)|z|^(-1-alpha) instead (first-order 14.7 and
        43.3), which is not criterion 1's convention and which JumpLaw cannot
        express.  The E3 bound is not met under any of these laws (E3 between
        5 and 50): the composite kernel cancels the |z|^(-1-alpha) term only,
        not the e^(-|z|) ~ 1 - |z| correction, so at beta = 0.2, k = 3,
        n = 700 a bias near zero is not what kernel cancellation promises.
        """
        targets = {(0.5, 3.0): 14.4, (0.9, 3.0): 42.4}
        cells = [
            CellConfig(alpha=a, gamma=g, beta=0.2, k=3.0, jumps="tempered")
            for a, g in targets
        ]
        results = mc_cells(cells)
        ok = True
        parts = []
        for res, ((a, g), target) in zip(results, targets.items()):
            e1_ok = abs(res.mean_e1 - target) <= 0.40 * target
            e3_ok = abs(res.mean_e3) <= 1.5
            ok &= e1_ok and e3_ok
            parts.append(
                f"(a={a},g={g}): E1={res.mean_e1:.1f} vs {target} "
                f"[{'ok' if e1_ok else 'off'}], E3={res.mean_e3:.2f} "
                f"[{'ok' if e3_ok else 'off'}]"
            )
        assert report(2, ok, "; ".join(parts))


class TestCriterion3:
    def test_beta049_smaller_e1(self):
        """Mean E1 at beta=0.49 below mean E1 at beta=0.2 for alpha in {1.2, 1.5}."""
        k49 = {1.2: 3.0, 1.5: 4.0}
        ok = True
        parts = []
        for alpha in (1.2, 1.5):
            lo = mc_cells([CellConfig(alpha=alpha, gamma=1.0, beta=0.2, k=2.0)])[0]
            hi = mc_cells(
                [CellConfig(alpha=alpha, gamma=1.0, beta=0.49, k=k49[alpha])]
            )[0]
            cell_ok = hi.mean_e1 < lo.mean_e1
            ok &= cell_ok
            parts.append(
                f"a={alpha}: E1(b=0.49)={hi.mean_e1:.1f} < E1(b=0.2)={lo.mean_e1:.1f} "
                f"[{'ok' if cell_ok else 'off'}]"
            )
        assert report(3, ok, "; ".join(parts))


class TestCriterion4:
    @pytest.mark.parametrize(
        "alpha,beta,k", [(1.5, 0.49, 4.0), (0.5, 0.2, 3.0)], ids=["a15b049", "a05b02"]
    )
    def test_rate_law(self, alpha, beta, k):
        """Log-log slope of mean bias vs 1/n within 0.08 of beta*(2-alpha)."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha))
        cfg = EstimatorConfig(beta=beta, k=k)
        slope, stderr = rate_fit(
            model, cfg, [200, 400, 800, 1600, 3200, 6400], 2000, seed=7
        )
        expected = beta * (2.0 - alpha)
        ok = abs(slope - expected) <= 0.08
        assert report(
            4,
            ok,
            f"a={alpha}, b={beta}: slope={slope:.3f} vs {expected:.3f} "
            f"(+-0.08, fit stderr {stderr:.3f})",
        )


class TestCriterion5:
    def test_dzeta_asymptote_vs_c_alpha(self):
        """zeta^(2-alpha) d(zeta) within 10% of tail_constant*kernel_moment at zeta=1e-4.

        The limit constant is the tail coefficient of the normalized law,
        tail_constant = 2 c_alpha sigma_alpha = 1, the constant
        d_zeta_asymptotic uses; c_alpha alone is the tail coefficient of the
        unit law exp(-|t|^alpha / 2) and is off by a factor 9.6 (alpha=0.5)
        and 6.0 (alpha=1.2).  The next term of the tail series changes
        zeta^(2-alpha) d(zeta) by a relative -4.3 zeta^(1/2) at alpha = 0.5:
        -13.5% at zeta = 1e-3, -4.5% at 1e-4, so the probe sits at 1e-4.
        At alpha = 1.2 the shift is below 1e-4 relative.
        """
        ok = True
        parts = []
        for alpha in (0.5, 1.2):
            z = 1e-4
            lhs = z ** (2.0 - alpha) * d_zeta_quadrature(z, alpha)
            rhs = tail_constant(alpha) * kernel_moment(Kernel(), alpha)
            part_ok = abs(lhs - rhs) <= 0.10 * rhs
            ok &= part_ok
            parts.append(
                f"a={alpha}: {lhs:.4f} vs {rhs:.4f} ({lhs / rhs - 1:+.2%}) "
                f"[{'ok' if part_ok else 'off'}]"
            )
        assert report(5, ok, "asymptote vs tail_constant*moment: " + "; ".join(parts))

    def test_dzeta_mc_vs_quadrature(self):
        """MC route within 3 standard errors of quadrature at 1e6 draws."""
        ok = True
        parts = []
        for alpha in (0.5, 1.2):
            z = 1e-3
            mc, se, quad = d_zeta(z, alpha, 10**6, seed=2024)
            part_ok = abs(mc - quad) <= 3.0 * se
            ok &= part_ok
            parts.append(
                f"a={alpha}: mc={mc:.1f}, quad={quad:.1f}, se={se:.2f} "
                f"[{'ok' if part_ok else 'off'}]"
            )
        assert report(5, ok, "mc vs quadrature: " + "; ".join(parts))


class TestCriterion6:
    def test_sampler_cf(self):
        """Empirical CF within 4/sqrt(N) of exp(-sigma_a |t|^a) on a [-5,5] grid."""
        N = 10**5
        bound = 4.0 / np.sqrt(N)
        ok = True
        parts = []
        for alpha in (0.5, 1.0, 1.5, 1.9):
            x = sample_stable_increment(
                alpha, 1.0, np.random.default_rng(alpha_seed(alpha)), N
            )
            ts = np.linspace(-5, 5, 41)
            worst = 0.0
            for t in ts:
                emp = np.mean(np.cos(t * x))
                target = np.exp(-stable_scale(alpha) * abs(t) ** alpha)
                worst = max(worst, abs(emp - target))
            part_ok = worst <= bound
            ok &= part_ok
            parts.append(f"a={alpha}: max dev {worst:.4f} [{'ok' if part_ok else 'off'}]")
        assert report(6, ok, f"CF bound {bound:.4f}: " + "; ".join(parts))

    def test_density_normalization(self):
        """Density integrates to 1 within 1e-4."""
        from scipy import integrate

        half, _ = integrate.quad(
            lambda z: stable_density(z, 1.9), 0.0, 200.0, limit=400
        )
        ok = abs(2.0 * half - 1.0) <= 1e-4
        assert report(6, ok, f"normalization: integral = {2 * half:.6f}")

    def test_tail_ratio_against_c_alpha(self):
        """z^(1+alpha) f(z) / tail_constant within 5% of 1 at z=500, alpha=0.8.

        tail_constant = 2 c_alpha sigma_alpha is the tail coefficient of
        the normalized law; c_alpha(0.8) = 0.141 belongs to the unit law
        exp(-|t|^alpha / 2) and would give a ratio near 7.  The second tail
        term changes the ratio by -5.05% at z = 80 but by -1.2% at z = 500,
        so the probe sits at 500.
        """
        alpha, z = 0.8, 500.0
        density = stable_density(z, alpha)
        ratio = z ** (1 + alpha) * density / tail_constant(alpha)
        ok = abs(ratio - 1.0) <= 0.05
        assert report(
            6, ok, f"tail ratio vs tail_constant at z=500, a=0.8: {ratio:.5f}"
        )


def alpha_seed(alpha):
    return int(round(1000 * alpha))


class TestCriterion7:
    def test_kernel_continuity(self):
        """Continuity probes < 1e-6 at all breakpoints of phi and psi_M."""
        eps = 1e-9
        worst = 0.0
        for b in (1.0, 2.0):
            worst = max(worst, abs(phi(b - eps) - phi(b + eps)))
        for M in (2.5, 4.0, 8.0):
            for b in (1.0, 1.5, M):
                worst = max(worst, abs(psi(b - eps, M) - psi(b + eps, M)))
        ok = worst < 1e-6
        assert report(7, ok, f"kernel continuity: worst jump {worst:.2e}")

    def test_cancellation_moment(self):
        """int (phi + c~ psi)(u) |u|^(1-alpha) du = 0 within 1e-8."""
        from scipy import integrate

        ok = True
        parts = []
        for alpha in (0.5, 1.0, 1.5):
            kern = cancelling_kernel(alpha, 4.0)
            val, _ = integrate.quad(
                lambda u: kern(u) * u ** (1.0 - alpha),
                0.0,
                4.0,
                points=[1.0, 1.5, 2.0],
                limit=400,
                epsabs=1e-13,
            )
            resid = abs(2.0 * val)
            part_ok = resid < 1e-8
            ok &= part_ok
            parts.append(f"a={alpha}: residual {resid:.1e}")
        assert report(7, ok, "cancellation moment: " + "; ".join(parts))


class TestCriterion8:
    def test_exact_power_law(self):
        """Exact power-law inputs return sigma^2 to rounding."""
        from jumpvol import richardson

        sigma_sq, C, alpha, beta, n = 1.0, 7.3, 1.5, 0.49, 700
        q_n = sigma_sq + C * n ** (-beta * (2 - alpha))
        q_2n = sigma_sq + C * (2 * n) ** (-beta * (2 - alpha))
        val = richardson(q_n, q_2n, alpha, beta)
        ok = abs(val - sigma_sq) < 1e-10
        assert report(8, ok, f"exact extrapolation: {val!r} vs {sigma_sq}")

    def test_paired_path_reduction(self):
        """Richardson reduces |mean normalized error| by >= 3x vs E1."""
        alpha, beta, k, n, reps = 1.5, 0.49, 4.0, 700, 500
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha))
        cfg = EstimatorConfig(beta=beta, k=k)
        e1 = np.empty(reps)
        er = np.empty(reps)
        for r in range(reps):
            q_n, _, extrap = richardson_paired(
                model, cfg, alpha, n, np.random.SeedSequence((8, r))
            )
            e1[r] = (q_n - 1.0) * np.sqrt(n)
            er[r] = (extrap - 1.0) * np.sqrt(n)
        ratio = abs(e1.mean()) / abs(er.mean())
        ok = ratio >= 3.0
        assert report(
            8,
            ok,
            f"paired MC: |mean E1|={abs(e1.mean()):.2f}, "
            f"|mean E_rich|={abs(er.mean()):.2f}, ratio {ratio:.1f}",
        )


class TestCriterion9:
    def test_determinism_and_per_path_equality(self):
        """Identical reports on rerun, and every replicate's (E1, E2, E3) equal
        bit for bit to the per-path route: parts -> form_increments ->
        estimates of its row -> (est - sigma^2) sqrt(n).  The two cells have
        distinct jump laws, so cell i is law group i, and block b of cell i
        takes its unit normals Z from the stream (seed, 0, b) of group 0 and
        its jumps J from (seed, i, b), after Z for cell 0.  R = 64 at n = 300
        is not a multiple of the 54 rows of a simulation block, so a partial
        block is covered too.  For cell 1, `draw_parts` draws Z for a
        jump-free group 0 ahead of the cell's law."""
        from jumpvol.estimators import estimates
        from jumpvol.harness import replicate_errors, report_to_csv
        from jumpvol.levy import block_rows, draw_parts, form_increments

        cells = (
            CellConfig(alpha=1.5, gamma=1.0, beta=0.2, k=2.0),
            CellConfig(alpha=0.5, gamma=3.0, beta=0.2, k=3.0, jumps="tempered"),
        )
        cfg = ExperimentConfig(cells=cells, n=300, replicates=64, seed=314)
        first = run_mc(cfg)
        rerun_ok = report_to_csv(first) == report_to_csv(run_mc(cfg))
        mismatches = 0
        per_cell, _ = replicate_errors(cfg)
        step = block_rows(cfg.n)
        for ci, cell in enumerate(cells):
            errors, _, _ = per_cell[ci]
            est, model = cell.estimator_config(), cell.model(cfg.sigma)
            models = [ModelSpec(), model] if ci else [model]
            for b, lo in enumerate(range(0, cfg.replicates, step)):
                shape = (min(step, cfg.replicates - lo), cfg.n)
                keys = [(cfg.seed, 0, b), (cfg.seed, ci, b)][: len(models)]
                *_, parts = draw_parts(models, keys, shape)
                block = form_increments(model, parts, shape)
                for r, dx in enumerate(block, lo):
                    row = estimates(dx, est, cell.alpha, cell.gamma, cell.M)
                    per_path = (row - cfg.sigma**2) * np.sqrt(cfg.n)
                    mismatches += not np.array_equal(errors[r], per_path)
            mismatches += first.results[ci].mean_e3 != float(errors[:, 2].mean())
        ok = rerun_ok and mismatches == 0
        assert report(9, ok, f"rerun {'bit-identical' if rerun_ok else 'differs'}; "
                      f"{mismatches} of {2 * cfg.replicates} replicates differ "
                      "from the per-path route")
