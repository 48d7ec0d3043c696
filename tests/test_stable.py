"""Tests for stable-law analytics: c_alpha, density inversion, and d(zeta)."""

from ast import literal_eval
from math import exp, gamma, inf, lgamma, log, pi, sin

import mpmath
import numpy as np
import pytest
from scipy import integrate

import jumpvol.stable
from jumpvol import (
    Kernel,
    NumericalError,
    ParameterError,
    c_alpha,
    cancelling_kernel,
    d_zeta,
    d_zeta_asymptotic,
    d_zeta_quadrature,
    kernel_moment,
    stable_density,
    tail_constant,
)
from jumpvol.levy import sample_stable_increment, stable_scale
from jumpvol.stable import (
    MC_PIECE_DRAWS,
    _SERIES_RTOL,
    _SERIES_RTOL_ROUNDING,
    _inversion,
    _series_coefficients,
    _tail_series_with_error,
)


class TestCAlpha:
    def test_value_at_one(self):
        assert c_alpha(1.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_continuity_near_one(self):
        assert c_alpha(1.0 - 1e-7) == pytest.approx(c_alpha(1.0), rel=1e-5)
        assert c_alpha(1.0 + 1e-7) == pytest.approx(c_alpha(1.0), rel=1e-5)

    def test_closed_form_spot_checks(self):
        # alpha*(1-alpha) / (4*Gamma(2-alpha)*cos(alpha*pi/2))
        from scipy.special import gamma

        for alpha in (0.3, 0.8, 1.4, 1.9):
            expected = (
                alpha
                * (1 - alpha)
                / (4 * gamma(2 - alpha) * np.cos(alpha * np.pi / 2))
            )
            assert c_alpha(alpha) == pytest.approx(expected, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            c_alpha(2.0)


class TestTailConstant:
    @pytest.mark.parametrize(
        "alpha", [0.3, 0.5, 0.999999, 1.0, 1.000001, 1.2, 1.5, 1.9]
    )
    def test_identically_one(self, alpha):
        """2 * c_alpha * sigma_alpha == 1: the normalized density has unit tail coefficient."""
        assert tail_constant(alpha) == pytest.approx(1.0, abs=1e-13)

    def test_one_on_a_grid(self):
        grid = np.concatenate([np.linspace(0.05, 1.99, 195), [1 - 1e-6, 1 + 1e-6]])
        worst = max(abs(tail_constant(float(a)) - 1.0) for a in grid)
        assert worst <= 1e-13


class TestStableDensity:
    def test_cauchy_closed_form(self):
        """At alpha = 1 the law is Cauchy with scale sigma_1 = pi."""
        c = np.pi
        for z in (0.0, 0.7, 2.0, 10.0):
            expected = c / (np.pi * (c * c + z * z))
            assert stable_density(z, 1.0) == pytest.approx(expected, rel=1e-8)

    def test_gaussian_limit_shape(self):
        """As alpha -> 2 the density is N(0, 2 sigma_alpha), near its centre."""
        alpha = 1.999999
        s = stable_scale(alpha)
        for v in (0.0, 1.3):
            z = v * np.sqrt(s)
            expected = np.exp(-(z**2) / (4.0 * s)) / np.sqrt(4.0 * np.pi * s)
            assert stable_density(z, alpha) == pytest.approx(expected, rel=1e-4)

    def test_symmetric(self):
        assert stable_density(2.3, 1.5) == stable_density(-2.3, 1.5)

    def test_normalization(self):
        """Integral over [-200, 200] is 1 up to the (tiny at alpha=1.9) tail mass."""
        from scipy import integrate

        val, _ = integrate.quad(
            lambda z: stable_density(z, 1.9), 0, 200, limit=400
        )
        # remaining tail mass: 2 * int_200^inf z^(-1-alpha) dz / alpha ~ 4.5e-5
        assert 2 * val == pytest.approx(1.0, abs=1e-4)

    def test_tail_ratio(self):
        """z^(1+alpha) f(z) approaches the tail coefficient 2*c_alpha*sigma_alpha = 1."""
        alpha = 0.8
        z = 80.0
        ratio = z ** (1 + alpha) * stable_density(z, alpha)
        assert ratio == pytest.approx(1.0, rel=0.06)


def _direct_tail_series(z, alpha, sigma, rtol=_SERIES_RTOL):
    """The tail series at one z > 0 as a loop over its terms, with its
    coefficients computed in the loop, as reference: (value, error
    estimate), or None where it does not reach rtol."""
    eps = np.finfo(float).eps
    log_x = log(sigma) - alpha * log(z)
    if log_x >= (0.0 if alpha >= 1.0 else 5.0):
        return None
    first = exp(lgamma(alpha + 1.0) + log_x)
    total = abs_sum = 0.0
    prev = inf
    for k in range(1, 201):
        mag = exp(lgamma(k * alpha + 1.0) - lgamma(k + 1.0) + k * log_x)
        if mag + eps * abs_sum <= rtol * abs(total):
            return total / (pi * z), (mag + eps * abs_sum) / (pi * z)
        if (alpha >= 1.0 and mag > prev) or eps * abs_sum > rtol * first:
            return None
        term = mag * sin(k * pi * alpha / 2.0)
        total += term if k % 2 else -term
        abs_sum += abs(term)
        prev = mag
    return None


class TestStableDensityFarTail:
    """Where the density falls below the Fourier inversion's absolute accuracy
    (about 1e-11), the value must come from the tail series or be refused."""

    @pytest.mark.parametrize("alpha,z", [(1.2, 1e5), (1.5, 1e5), (1.9, 1e4)])
    def test_tail_coefficient_far_out(self, alpha, z):
        """z^(1+alpha) f(z) is the tail coefficient; the next term is < 1e-5 here."""
        ratio = z ** (1 + alpha) * stable_density(z, alpha)
        assert ratio == pytest.approx(tail_constant(alpha), rel=1e-4)

    def test_cauchy_far_tail(self):
        c, z = np.pi, 1e6
        expected = c / (np.pi * (c * c + z * z))
        density = stable_density(z, 1.0)
        assert density == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_near_origin(self, alpha):
        """Near the origin f is f(0) = Gamma(1 + 1/alpha) / (pi sigma^(1/alpha))."""
        f0 = gamma(1.0 + 1.0 / alpha) / (np.pi * stable_scale(alpha) ** (1.0 / alpha))
        assert stable_density(1e-300, alpha) == pytest.approx(f0, rel=1e-8)

    @pytest.mark.parametrize(
        "alpha,z", [(0.5, 50.0), (0.9, 10.0), (1.5, 20.0), (1.9, 50.0)]
    )
    def test_series_agrees_with_fourier_inversion(self, alpha, z):
        """Where both routes are accurate they agree; the series is the one used."""
        sigma = stable_scale(alpha)
        series, _ = _tail_series_with_error(np.array([z]), alpha, sigma, _SERIES_RTOL)
        fourier = _inversion(np.array([z]), alpha, sigma)[0][0]
        assert series[0] == pytest.approx(fourier, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0, 1.5, 1.9])
    def test_cached_coefficients_give_the_direct_sum(self, alpha):
        """The series with per-alpha cached coefficients equals, bit for bit,
        the series that computes every coefficient in place."""
        assert _series_coefficients(alpha) is _series_coefficients(alpha)
        sigma = stable_scale(alpha)
        for z in np.logspace(-2, 8, 41):
            value, _ = _tail_series_with_error(np.array([z]), alpha, sigma, _SERIES_RTOL)
            found = _direct_tail_series(z, alpha, sigma)
            series = None if np.isnan(value[0]) else value[0]
            assert series == (None if found is None else found[0])

    def test_refuses_when_no_route_is_accurate(self, monkeypatch):
        """Where the inversion's error estimate is as large as its value and
        the tail series cancels too much (alpha = 0.05, z = 1), the density
        is refused.  The rotated form reaches that point, so its estimate
        is inflated here to make a case that has to refuse."""

        def inaccurate(z, alpha, sigma):
            return np.full(z.size, 4e-15), np.full(z.size, 4e-15)

        monkeypatch.setattr("jumpvol.stable._inversion", inaccurate)
        with pytest.raises(NumericalError, match="error estimate"):
            stable_density(1.0, 0.05)

    def test_dzeta_quadrature_far_zeta(self):
        """At zeta = 1e-5 the kernel reaches z = 2e5, deep in the tail; there
        d(zeta) is within 1e-3 of its small-zeta asymptote at alpha = 1.2."""
        z, alpha = 1e-5, 1.2
        assert d_zeta_quadrature(z, alpha) == pytest.approx(
            d_zeta_asymptotic(z, alpha), rel=1e-3
        )


def _scalar_density(z, alpha):
    """`_density` with the tail series taken one z at a time, as reference."""
    sigma = stable_scale(alpha)
    val, err = _inversion(z, alpha, sigma)
    for i in np.flatnonzero(~(err <= _SERIES_RTOL_ROUNDING * np.abs(val)) & (z > 0.0)):
        found = _direct_tail_series(z[i], alpha, sigma, _SERIES_RTOL_ROUNDING)
        if found is None and not err[i] <= _SERIES_RTOL * abs(val[i]):
            found = _direct_tail_series(z[i], alpha, sigma, _SERIES_RTOL)
        if found is not None:
            val[i], err[i] = found
    return val, err


SERIES_ALPHAS = [0.3, 0.9, 1.0, 1.2, 1.5, 1.9]


class TestTailSeriesOverArrays:
    """The tail series runs over an array of z in one loop over its terms,
    and gives each z what a loop at that z alone gives, bit for bit."""

    @pytest.mark.parametrize("alpha", SERIES_ALPHAS)
    @pytest.mark.parametrize(
        "rtol", [_SERIES_RTOL, _SERIES_RTOL_ROUNDING], ids=["1e-11", "rounding"]
    )
    def test_equals_the_scalar_loop(self, alpha, rtol):
        sigma = stable_scale(alpha)
        gen = np.random.default_rng(5)
        z = np.concatenate([np.logspace(-3, 9, 500), gen.uniform(0.5, 500.0, 100)])
        val, err = _tail_series_with_error(z, alpha, sigma, rtol)
        refused = 0
        for i, zi in enumerate(z):
            found = _direct_tail_series(float(zi), alpha, sigma, rtol)
            if found is None:
                refused += 1
                assert np.isnan(val[i]) and err[i] == inf
            else:
                assert (val[i], err[i]) == found
                assert np.signbit(val[i]) == np.signbit(found[0])
        assert 0 < refused < z.size  # both outcomes are checked

    def test_empty(self):
        val, err = _tail_series_with_error(np.empty(0), 1.5, stable_scale(1.5), 1e-11)
        assert val.shape == err.shape == (0,)

    @pytest.mark.parametrize("alpha", SERIES_ALPHAS)
    def test_density_takes_one_series_call_per_rtol(self, alpha, monkeypatch):
        """1 000 z make at most two calls, one per rtol, and the values
        and estimates are those of the one-z-at-a-time loop."""
        z = np.logspace(-2, 6, 1000)
        want = _scalar_density(z, alpha)
        rtols = []
        series = jumpvol.stable._tail_series_with_error

        def spy(z, alpha, sigma, rtol):
            rtols.append(rtol)
            return series(z, alpha, sigma, rtol)

        monkeypatch.setattr(jumpvol.stable, "_tail_series_with_error", spy)
        got = jumpvol.stable._density(z, alpha)
        assert len(rtols) <= 2 and len(set(rtols)) == len(rtols)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestDZeta:
    """d(zeta) = E[S^2 K(S*zeta)] with S the Levy-measure-normalized stable draw."""

    def test_even_in_zeta(self):
        assert d_zeta_quadrature(0.05, 1.2) == pytest.approx(
            d_zeta_quadrature(-0.05, 1.2), rel=1e-10
        )

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            d_zeta_quadrature(0.0, 1.2)
        with pytest.raises(ParameterError):
            d_zeta(0.0, 1.2, 100, 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            d_zeta(bad, 1.2, 100, 0)
        with pytest.raises(ParameterError, match="finite"):
            d_zeta([0.1, bad], 1.2, 100, 0)
        with pytest.raises(ParameterError, match="finite"):
            d_zeta_quadrature(bad, 1.2)
        with pytest.raises(ParameterError, match="finite"):
            d_zeta_asymptotic(bad, 1.2)

    @pytest.mark.parametrize("zeta", [1e-300, -1e-300, 1e-101, 1e101, 1e300])
    def test_quadrature_refuses_out_of_range(self, zeta):
        """|zeta|^3 would underflow to 0 or overflow: a NumericalError, not a
        ZeroDivisionError or OverflowError."""
        with pytest.raises(NumericalError, match="outside the quadrature's range"):
            d_zeta_quadrature(zeta, 1.5)

    def test_quadrature_range_ends_are_finite(self):
        assert 0.0 < d_zeta_quadrature(1e-100, 1.5) < np.inf
        assert 0.0 <= d_zeta_quadrature(1e100, 1.5) < 1e-290

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_quadrature_at_small_zeta(self, alpha):
        """At zeta = 1e-5 the whole integral is about 1e-5^(1+alpha), below a
        fixed absolute tolerance of 1e-12; d(zeta) must still meet its
        asymptote (it used to read 0.9915 and 0.5949 of it)."""
        assert d_zeta_quadrature(1e-5, alpha) == pytest.approx(
            d_zeta_asymptotic(1e-5, alpha), rel=1e-6
        )

    def test_quadrature_refuses_a_large_error_estimate(self, monkeypatch):
        """Density errors of 1e-3 of each value carry into the total's
        estimate, which is then far above the tolerance."""
        density = jumpvol.stable._density

        def noisy(z, alpha):
            val, err = density(z, alpha)
            return val, err + 1e-3 * np.abs(val)

        monkeypatch.setattr("jumpvol.stable._density", noisy)
        with pytest.raises(NumericalError, match="error estimate"):
            d_zeta_quadrature(0.1, 1.5)

    def test_asymptotic_overflow_is_numerical_error(self):
        assert np.isfinite(d_zeta_asymptotic(1e-300, 1.5))
        with pytest.raises(NumericalError, match="overflows"):
            d_zeta_asymptotic(1e-200, 0.1)

    def test_quadrature_frozen_values(self):
        # frozen from this implementation after cross-validation against MC
        assert d_zeta_quadrature(0.01, 0.5) == pytest.approx(
            1840.45, rel=1e-3
        )

    PINNED = {
        (0.5, "phi"): [
            "(23.014841081924196, 0.21099080034404794, 23.004148606993738)",
            "(1819.5325252464247, 18.001449781255893, 1840.4512864058618)",
            "(80127.10979429971, 1229.9619077069472, 79312.82569497202)",
        ],
        (0.5, "composite"): [
            "(-17.059989799160228, 0.46014495965311625, -16.364048323814064)",
            "(-388.4645653454693, 34.49033756766625, -390.9209341079755)",
            "(-4770.04610766273, 2144.9933507653104, -5188.423993150763)",
        ],
        (1.5, "phi"): [
            "(14.873151711222476, 0.12757442989579243, 14.946440968310432)",
            "(52.51407916027997, 2.1960815528278377, 51.43982193105514)",
            "(142.72285704474334, 30.8643424403908, 163.06752171555067)",
        ],
        (1.5, "composite"): [
            "(-3.2640486359023897, 0.532117412787232, -3.3733011897628504)",
            "(-0.636024385847213, 9.242424770648757, -0.31652097984658617)",
            "(142.43084357140665, 30.659846931627186, -0.03158226733584884)",
        ],
    }

    # The tuples that moved, by rounding only, keyed by (alpha, kernel, zeta
    # index): when the terms came to be formed from S / u at u = 1/|zeta| in
    # place of S * zeta, and when the stable transform came to take one power
    # per draw.  PINNED keeps the earlier values; each stays within 1e-12.
    REPINNED = {
        (0.5, "phi", 0): (
            "(23.014841081924196, 0.21099080034404802, 23.004148606993738)"
        ),
        (0.5, "composite", 2): (
            "(-4770.046107662728, 2144.9933507653104, -5188.423993150763)"
        ),
        (1.5, "phi", 0): (
            "(14.873151711222478, 0.12757442989579246, 14.946440968310432)"
        ),
        (1.5, "phi", 1): (
            "(52.514079160279984, 2.196081552827838, 51.43982193105514)"
        ),
        (1.5, "phi", 2): (
            "(142.72285704474342, 30.864342440390825, 163.06752171555067)"
        ),
        (1.5, "composite", 0): (
            "(-3.2640486359023924, 0.532117412787232, -3.3733011897628504)"
        ),
        (1.5, "composite", 1): (
            "(-0.6360243858471719, 9.242424770648755, -0.31652097984658617)"
        ),
        (1.5, "composite", 2): (
            "(142.43084357140677, 30.659846931627204, -0.03158226733584884)"
        ),
    }

    @pytest.mark.parametrize("alpha,name", sorted(PINNED))
    def test_values_are_pinned(self, alpha, name):
        """(mc, stderr, quadrature) at zeta 0.1, 0.01, 0.001 from 50 000
        draws at seed 0, to the last bit, so that the draws, the truncated
        terms and the density move only on purpose."""
        kernel = Kernel() if name == "phi" else cancelling_kernel(alpha, 4.0)
        rows = d_zeta([0.1, 0.01, 0.001], alpha, 50_000, 0, kernel)
        for i, (row, old) in enumerate(zip(rows, self.PINNED[alpha, name])):
            pinned = self.REPINNED.get((alpha, name, i), old)
            assert repr(row) == pinned
            assert row == pytest.approx(literal_eval(old), rel=1e-12, abs=0.0)

    def test_mc_agrees_with_quadrature(self):
        mc, se, quad = d_zeta(0.01, 0.5, 10**6, 123)
        assert abs(mc - quad) < 4 * se

    @pytest.mark.parametrize("zeta", [0.1, 0.01])
    def test_mc_agrees_with_quadrature_for_composite(self, zeta):
        """The composite kernel goes negative; its negative terms count in both."""
        kernel = cancelling_kernel(1.5, 4.0)
        mc, se, quad = d_zeta(zeta, 1.5, 10**6, 123, kernel)
        assert abs(mc - quad) < 4 * se

    def test_divergence_rate(self):
        """d(zeta) grows like |zeta|^(alpha-2) as zeta -> 0."""
        alpha = 1.2
        zs = np.array([0.1, 0.01, 0.001])
        vals = np.array([d_zeta_quadrature(z, alpha) for z in zs])
        slope = np.polyfit(np.log(zs), np.log(vals), 1)[0]
        assert slope == pytest.approx(alpha - 2.0, abs=0.05)

    def test_asymptotic_route(self):
        """zeta^(2-alpha) * d(zeta) -> tail_coefficient * kernel_moment."""
        alpha = 1.2
        z = 1e-4
        asym = d_zeta_asymptotic(z, alpha)
        target = z ** (alpha - 2.0) * tail_constant(alpha) * kernel_moment(
            Kernel(), alpha
        )
        assert asym == pytest.approx(target, rel=1e-10)

    def test_quadrature_approaches_asymptote(self):
        alpha = 1.2
        z = 1e-3
        assert d_zeta_quadrature(z, alpha) == pytest.approx(
            d_zeta_asymptotic(z, alpha), rel=0.05
        )


class TestDZetaMcSharedDraws:
    """Every zeta of one d_zeta call is evaluated on the same draws."""

    ZETAS = [0.1, -0.01, 0.001]

    def test_sequence_equals_scalar_calls(self):
        kernel = cancelling_kernel(1.5, 4.0)
        many = d_zeta(self.ZETAS, 1.5, 5000, 7, kernel)
        assert many == [d_zeta(z, 1.5, 5000, 7, kernel) for z in self.ZETAS]

    def test_sequence_equals_scalar_calls_across_pieces(self):
        """Piece i draws from the stream SeedSequence((seed, i)), and sums
        carry over between pieces; the last piece here is short."""
        n = 1_000_000 + 3001
        zetas = np.array([0.05, 0.005])
        many = d_zeta(zetas, 0.5, n, 11)
        assert many == [d_zeta(float(z), 0.5, n, 11) for z in zetas]
        sizes = [min(MC_PIECE_DRAWS, n - lo) for lo in range(0, n, MC_PIECE_DRAWS)]
        assert 0 < sizes[-1] < MC_PIECE_DRAWS
        s = np.concatenate(
            [
                sample_stable_increment(0.5, 1.0, np.random.SeedSequence((11, i)), m)
                for i, m in enumerate(sizes)
            ]
        )
        for z, (mean, stderr, _) in zip(zetas, many):
            weights = Kernel()(s * z)
            vals = np.where(weights > 0.0, s * s * weights, 0.0)
            assert mean == pytest.approx(vals.mean(), rel=1e-12)
            assert stderr == pytest.approx(vals.std() / np.sqrt(n), rel=1e-9)

    def test_one_kernel_pass_per_zeta_and_piece(self, monkeypatch):
        """Three zeta over two pieces make six `truncation_pass` calls, at
        u = 1/|zeta| on each piece's draws, and phi and psi are evaluated on
        the draws only inside them, once each per call: the d(zeta) twin of
        the `truncated_sums` spy of `estimate`.  The quadrature, which
        evaluates the kernel on its own nodes, is stubbed out."""
        from jumpvol import kernels, workers

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
        monkeypatch.setattr(jumpvol.stable, "d_zeta_quadrature", lambda *a: 0.0)
        passes, evaluated, inside = [], [], []
        real_pass = kernels.truncation_pass

        def counted(s, u, *kernel_args):
            passes.append((s.size, u))
            inside.append(True)
            yield from real_pass(s, u, *kernel_args)
            inside.pop()

        monkeypatch.setattr(jumpvol.stable, "truncation_pass", counted)
        for name in ("phi", "psi"):
            real = getattr(kernels, name)
            spy = lambda *a, real=real, name=name: (
                evaluated.append((name, bool(inside))) or real(*a)
            )
            monkeypatch.setattr(kernels, name, spy)
        n = MC_PIECE_DRAWS + 100
        d_zeta(self.ZETAS, 1.5, n, 7, cancelling_kernel(1.5, 4.0))
        us = [1.0 / abs(z) for z in self.ZETAS]
        assert passes == [(MC_PIECE_DRAWS, u) for u in us] + [(100, u) for u in us]
        assert evaluated == [("phi", True), ("psi", True)] * 6

    def test_frozen_mc(self):
        """Frozen from this implementation (quadrature 51.4398): a change of
        the streams or of how a piece is drawn moves them by far more."""
        mc, stderr, _ = d_zeta(0.01, 1.5, 50_000, 5)
        assert mc == pytest.approx(49.62160846559793, rel=1e-10)
        assert stderr == pytest.approx(2.106096858084172, rel=1e-10)

    def test_result_shapes(self):
        one = d_zeta(0.1, 1.2, 100, 0)
        assert isinstance(one, tuple) and len(one) == 3
        assert all(type(v) is float for v in one)
        assert one[2] == d_zeta_quadrature(0.1, 1.2)
        assert d_zeta([0.1], 1.2, 100, 0) == [one]

    @pytest.mark.parametrize("zeta", [[], [[0.1, 0.2]], [0.1, 0.0]])
    def test_rejects_bad_sequences(self, zeta):
        with pytest.raises(ParameterError):
            d_zeta(zeta, 1.2, 100, 0)

    @pytest.mark.parametrize(
        "seed",
        [-1, 1.5, np.random.default_rng(0)],
        ids=["negative", "float", "generator"],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed):
        """The seed keys the pieces' streams, so only an integer will do."""
        with pytest.raises(ParameterError, match="non-negative integer") as info:
            d_zeta(0.1, 1.2, 100, seed)
        assert repr(seed) in str(info.value)

    @pytest.mark.parametrize("n_draws", [0, 100.0])
    def test_n_draws_must_be_a_positive_integer(self, n_draws):
        with pytest.raises(ParameterError, match="n_draws must be a positive integer"):
            d_zeta(0.1, 1.2, n_draws, 0)

    def test_every_zeta_is_checked_before_drawing(self, monkeypatch):
        """The last zeta is outside the quadrature's range: no stream is
        seeded or drawn from."""
        calls = []
        real = jumpvol.stable.sample_stable_increment
        spy = lambda *a: calls.append(a) or real(*a)
        monkeypatch.setattr(jumpvol.stable, "sample_stable_increment", spy)
        with pytest.raises(NumericalError, match="outside the quadrature's range"):
            d_zeta([0.1, 1e101], 1.5, 10**8, 0)
        assert calls == []


def _mp_sigma(a):
    return mpmath.pi / (mpmath.gamma(a + 1) * mpmath.sin(mpmath.pi * a / 2))


def _mp_series_density(z, alpha):
    """f by its convergent tail series (alpha < 1), summed at 60 digits."""
    with mpmath.workdps(60):
        a, z = mpmath.mpf(alpha), mpmath.mpf(z)
        log_x = mpmath.log(_mp_sigma(a) * z ** (-a))
        total = mpmath.mpf(0)
        for k in range(1, 2000):
            mag = mpmath.exp(
                mpmath.loggamma(k * a + 1) - mpmath.loggamma(k + 1) + k * log_x
            )
            total += (1 if k % 2 else -1) * mag * mpmath.sin(k * mpmath.pi * a / 2)
            if k > 5 and mag < mpmath.mpf(10) ** -40 * abs(total):
                return float(total / (mpmath.pi * z))
    raise AssertionError("reference series did not converge")


def _mp_fourier_density(z, alpha):
    """(1/pi) int_0^T cos(z t) exp(-sigma t^alpha) dt at 30 digits, with
    sigma T^alpha = 90, integrated over half-periods of the cosine."""
    with mpmath.workdps(30):
        a, z = mpmath.mpf(alpha), mpmath.mpf(z)
        sigma = _mp_sigma(a)
        t_max = (90 / sigma) ** (1 / a)
        pieces = int(z * t_max / mpmath.pi) + 1
        points = [t_max * i / pieces for i in range(pieces + 1)]

        def integrand(t):
            return mpmath.cos(z * t) * mpmath.exp(-sigma * t**a)

        return float(mpmath.quad(integrand, points) / mpmath.pi)


class TestDensityAgainstMpmath:
    @pytest.mark.parametrize("alpha,z", [(1.99, 100.0), (0.999, 3.0)])
    def test_cosine_form(self, alpha, z):
        """Where QUADPACK's weighted rule was 1.9e-9 and 6.9e-11 off."""
        assert stable_density(z, alpha) == pytest.approx(
            _mp_fourier_density(z, alpha), rel=1e-11, abs=0.0
        )

    @pytest.mark.parametrize(
        "alpha,z", [(0.05, 1.0), (0.05, 1e8), (0.1, 4.6e3), (0.1, 2.2e4), (0.1, 2.2e5)]
    )
    def test_small_alpha(self, alpha, z):
        """Far below the cosine form's absolute accuracy, where the tail
        series cancels too much, the rotated form gives the density."""
        assert stable_density(z, alpha) == pytest.approx(
            _mp_series_density(z, alpha), rel=1e-12, abs=0.0
        )

    def test_small_alpha_value(self):
        assert stable_density(1.0, 0.05) == pytest.approx(4.032125e-15, rel=1e-6)


def _reference_d_zeta(zeta, alpha, kernel):
    """d(zeta) by QUADPACK at epsrel 1e-14 on each piece of the same
    integrand, split at the kernel's breakpoints and at zeta * 10^k below 1."""
    points = [0.0]
    while points[-1] < zeta:
        points.append(zeta)
    while points[-1] * 10.0 < 1.0:
        points.append(points[-1] * 10.0)
    points += [p for p in (1.0, 1.5, 2.0, kernel.support_radius) if p > points[-1]]
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        val, _ = integrate.quad(
            lambda u: u * u * kernel(u) * stable_density(u / zeta, alpha),
            lo,
            hi,
            epsabs=1e-300,
            epsrel=1e-14,
            limit=500,
        )
        total += val
    return 2.0 * total / zeta**3


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestDZetaAgainstReference:
    @pytest.mark.parametrize("alpha", [0.5, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("zeta", [0.1, 1e-2, 1e-3, 1e-5])
    def test_phi(self, alpha, zeta):
        kernel = Kernel()
        assert d_zeta_quadrature(zeta, alpha, kernel) == pytest.approx(
            _reference_d_zeta(zeta, alpha, kernel), rel=1e-10
        )

    @pytest.mark.parametrize(
        "alpha,zeta", [(1.5, 1e-3), (1.9, 1e-3), (1.5, 1e-4), (1.2, 1e-5)]
    )
    def test_composite(self, alpha, zeta):
        """The kernel's parts cancel to 1e-3..1e-6 of either here; the
        total still meets the reference."""
        kernel = cancelling_kernel(alpha, 4.0)
        assert d_zeta_quadrature(zeta, alpha, kernel) == pytest.approx(
            _reference_d_zeta(zeta, alpha, kernel), rel=1e-8
        )

    @pytest.mark.parametrize("alpha,zeta", [(1.9, 1e-5), (1.5, 1e-8), (1.9, 1e-8)])
    def test_composite_refuses_where_cancellation_takes_the_accuracy(self, alpha, zeta):
        """The parts cancel to about 1e-8 of either at (1.9, 1e-5), where
        the old per-piece check returned -6.789e-7 against -6.83e-7, and to
        rounding at zeta = 1e-8, where it returned noise."""
        with pytest.raises(NumericalError, match="error estimate"):
            d_zeta_quadrature(zeta, alpha, cancelling_kernel(alpha, 4.0))
