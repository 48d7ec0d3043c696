"""Tests for stable-law analytics: c_alpha, density inversion, and d(zeta)."""

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
    d_zeta_asymptotic,
    d_zeta_mc,
    d_zeta_quadrature,
    kernel_moment,
    parse_kernel,
    stable_density,
    tail_constant,
)
from jumpvol.levy import sample_stable_increment, stable_scale
from jumpvol.stable import _fourier_density, _series_coefficients, _tail_series


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


def _direct_tail_series(z, alpha, sigma):
    """_tail_series with its coefficients computed in the loop, as reference."""
    eps, rtol = np.finfo(float).eps, 1e-11
    log_x = log(sigma) - alpha * log(z)
    if log_x >= (0.0 if alpha >= 1.0 else 5.0):
        return None
    first = exp(lgamma(alpha + 1.0) + log_x)
    total = abs_sum = 0.0
    prev = inf
    for k in range(1, 201):
        mag = exp(lgamma(k * alpha + 1.0) - lgamma(k + 1.0) + k * log_x)
        if mag + eps * abs_sum <= rtol * abs(total):
            return total / (pi * z)
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
        series = _tail_series(z, alpha, sigma)
        assert series is not None
        fourier = _fourier_density(z, alpha, sigma)
        assert series == pytest.approx(fourier, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0, 1.5, 1.9])
    def test_cached_coefficients_give_the_direct_sum(self, alpha):
        """The series with per-alpha cached coefficients equals, bit for bit,
        the series that computes every coefficient in place."""
        assert _series_coefficients(alpha) is _series_coefficients(alpha)
        sigma = stable_scale(alpha)
        for z in np.logspace(-2, 8, 41):
            assert _tail_series(z, alpha, sigma) == _direct_tail_series(z, alpha, sigma)

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
            d_zeta_mc(0.0, 1.2, 100, 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            d_zeta_mc(bad, 1.2, 100, 0)
        with pytest.raises(ParameterError, match="finite"):
            d_zeta_mc([0.1, bad], 1.2, 100, 0)
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

    def test_mc_agrees_with_quadrature(self):
        mc, se = d_zeta_mc(0.01, 0.5, 10**6, 123)
        quad = d_zeta_quadrature(0.01, 0.5)
        assert abs(mc - quad) < 4 * se

    @pytest.mark.parametrize("zeta", [0.1, 0.01])
    def test_mc_agrees_with_quadrature_for_composite(self, zeta):
        """The composite kernel goes negative; its negative terms count in both."""
        kernel = parse_kernel("composite", 1.5)
        mc, se = d_zeta_mc(zeta, 1.5, 10**6, 123, kernel)
        quad = d_zeta_quadrature(zeta, 1.5, kernel)
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
            Kernel("phi"), alpha
        )
        assert asym == pytest.approx(target, rel=1e-10)

    def test_quadrature_approaches_asymptote(self):
        alpha = 1.2
        z = 1e-3
        assert d_zeta_quadrature(z, alpha) == pytest.approx(
            d_zeta_asymptotic(z, alpha), rel=0.05
        )


class TestDZetaMcSharedDraws:
    """Every zeta of one d_zeta_mc call is evaluated on the same draws."""

    ZETAS = [0.1, -0.01, 0.001]

    def test_sequence_equals_scalar_calls(self):
        kernel = parse_kernel("composite:M=4", 1.5)
        many = d_zeta_mc(self.ZETAS, 1.5, 5000, 7, kernel)
        assert many == [d_zeta_mc(z, 1.5, 5000, 7, kernel) for z in self.ZETAS]

    def test_sequence_equals_scalar_calls_across_chunks(self):
        """n_draws above the 10^6-draw chunk: sums carry over between chunks."""
        n = 1_000_000 + 3001
        zetas = np.array([0.05, 0.005])
        many = d_zeta_mc(zetas, 0.5, n, 11)
        assert many == [d_zeta_mc(float(z), 0.5, n, 11) for z in zetas]
        gen = np.random.default_rng(11)
        s = np.concatenate(
            [
                sample_stable_increment(0.5, 1.0, gen, 1_000_000),
                sample_stable_increment(0.5, 1.0, gen, 3001),
            ]
        )
        for z, (mean, stderr) in zip(zetas, many):
            weights = Kernel("phi")(s * z)
            vals = np.where(weights > 0.0, s * s * weights, 0.0)
            assert mean == pytest.approx(vals.mean(), rel=1e-12)
            assert stderr == pytest.approx(vals.std() / np.sqrt(n), rel=1e-9)

    def test_result_shapes(self):
        one = d_zeta_mc(0.1, 1.2, 100, 0)
        assert isinstance(one, tuple) and all(type(v) is float for v in one)
        assert d_zeta_mc([0.1], 1.2, 100, 0) == [one]

    @pytest.mark.parametrize("zeta", [[], [[0.1, 0.2]], [0.1, 0.0]])
    def test_rejects_bad_sequences(self, zeta):
        with pytest.raises(ParameterError):
            d_zeta_mc(zeta, 1.2, 100, 0)


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
        kernel = Kernel("phi")
        assert d_zeta_quadrature(zeta, alpha, kernel) == pytest.approx(
            _reference_d_zeta(zeta, alpha, kernel), rel=1e-10
        )

    @pytest.mark.parametrize(
        "alpha,zeta", [(1.5, 1e-3), (1.9, 1e-3), (1.5, 1e-4), (1.2, 1e-5)]
    )
    def test_composite(self, alpha, zeta):
        """The kernel's parts cancel to 1e-3..1e-6 of either here; the
        total still meets the reference."""
        kernel = parse_kernel("composite", alpha)
        assert d_zeta_quadrature(zeta, alpha, kernel) == pytest.approx(
            _reference_d_zeta(zeta, alpha, kernel), rel=1e-8
        )

    @pytest.mark.parametrize("alpha,zeta", [(1.9, 1e-5), (1.5, 1e-8), (1.9, 1e-8)])
    def test_composite_refuses_where_cancellation_takes_the_accuracy(self, alpha, zeta):
        """The parts cancel to about 1e-8 of either at (1.9, 1e-5), where
        the old per-piece check returned -6.789e-7 against -6.83e-7, and to
        rounding at zeta = 1e-8, where it returned noise."""
        with pytest.raises(NumericalError, match="error estimate"):
            d_zeta_quadrature(zeta, alpha, parse_kernel("composite", alpha))
