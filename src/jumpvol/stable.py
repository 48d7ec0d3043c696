"""Analytics for the Levy-measure-normalized symmetric stable law.

Covers the closed-form constant c_alpha, the density by its tail series or
by Fourier inversion, and the truncated second moment
d(zeta) = E[S^2 K(S * zeta)] evaluated by Monte Carlo, by quadrature
against the density, and by its small-zeta power-law approximation.

A normalization note that matters throughout: the density of the law with
characteristic function exp(-sigma|t|^alpha) has tail
f(z) ~ 2*c_alpha*sigma * |z|^(-1-alpha).  For the Levy-measure normalization
used here (sigma = sigma_alpha) the product 2*c_alpha*sigma_alpha equals 1
exactly, so the tail coefficient of this law is 1, while c_alpha itself is
the tail coefficient of the unit law exp(-|t|^alpha / 2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from math import exp, gamma, inf, isfinite, lgamma, log, pi, sin

import numpy as np
from scipy import integrate

from .errors import NumericalError, ParameterError
from .kernels import Kernel, kernel_moment, truncated_terms
from .levy import RandomState, _as_generator, sample_standard_stable, stable_scale


def c_alpha(alpha: float) -> float:
    """Gamma(alpha+1) sin(pi alpha/2) / (2 pi), the reciprocal of 2 * sigma_alpha.

    Equal to alpha(1-alpha) / (4 Gamma(2-alpha) cos(pi alpha/2)) away from
    alpha = 1, and to its limit 1/(2 pi) there, without a special case.
    """
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    return gamma(alpha + 1.0) * sin(pi * alpha / 2.0) / (2.0 * pi)


def tail_constant(alpha: float) -> float:
    """Tail coefficient of the Levy-measure-normalized density: 2*c_alpha*sigma_alpha.

    This equals 1 for every alpha in (0, 2), to rounding; it is computed as
    the product so that the relation stays visible and testable.
    """
    return 2.0 * c_alpha(alpha) * stable_scale(alpha)


@dataclass(frozen=True)
class StableLaw:
    """Symmetric stable law with characteristic function exp(-scale_exponent*|t|^alpha)."""

    alpha: float
    scale_exponent: float = field(default=0.0)

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must lie in (0, 2), got {self.alpha}")
        if self.scale_exponent == 0.0:
            object.__setattr__(self, "scale_exponent", stable_scale(self.alpha))
        elif self.scale_exponent <= 0.0:
            raise ParameterError("scale_exponent must be positive")

    def sample(self, rng: RandomState, size: int) -> np.ndarray:
        scale = self.scale_exponent ** (1.0 / self.alpha)
        return scale * sample_standard_stable(self.alpha, rng, size)


# Relative accuracy the tail series must reach before it is used, and the
# relative quadrature error estimate above which the inversion is refused.
_SERIES_RTOL = 1e-11
_QUAD_RTOL = 1e-4
_SERIES_MAX_TERMS = 200
_EPS = np.finfo(float).eps


@lru_cache(maxsize=64)
def _series_coefficients(alpha: float) -> tuple[tuple[float, float], ...]:
    """(lgamma(k alpha+1) - lgamma(k+1), sin(k pi alpha/2)) for k = 1..max terms."""
    return tuple(
        (lgamma(k * alpha + 1.0) - lgamma(k + 1.0), sin(k * pi * alpha / 2.0))
        for k in range(1, _SERIES_MAX_TERMS + 1)
    )


def _tail_series(z: float, alpha: float, sigma: float) -> float | None:
    """Tail series of the density, or None where it is not accurate.

    f(z) = (1/(pi z)) sum_k (-1)^(k+1) Gamma(k alpha+1)/k! sin(k pi alpha/2) x^k
    with x = sigma z^-alpha.

    The series converges for alpha < 1 and is asymptotic for alpha >= 1
    (convergent for x < 1 at alpha = 1).  Its error is estimated as the
    magnitude of the first omitted term (truncation) plus the rounding unit
    times the sum of the terms' magnitudes (cancellation).  Returns None
    when that estimate exceeds _SERIES_RTOL of the sum, or when the terms
    start to grow for alpha >= 1, or once the cancellation alone exceeds
    _SERIES_RTOL of the first term, which bounds the sum.
    """
    log_x = log(sigma) - alpha * log(z)
    # Past x = e^5 the cancellation rules the series out for every alpha < 1,
    # and its terms would overflow before the checks below see that.
    if log_x >= (0.0 if alpha >= 1.0 else 5.0):
        return None
    first = exp(lgamma(alpha + 1.0) + log_x)
    total = abs_sum = 0.0
    prev = inf
    for k, (log_coef, sine) in enumerate(_series_coefficients(alpha), start=1):
        mag = exp(log_coef + k * log_x)
        if mag + _EPS * abs_sum <= _SERIES_RTOL * abs(total):
            return total / (pi * z)
        if (alpha >= 1.0 and mag > prev) or _EPS * abs_sum > _SERIES_RTOL * first:
            return None
        term = mag * sine
        total += term if k % 2 else -term
        abs_sum += abs(term)
        prev = mag
    return None


def _fourier_density(z: float, alpha: float, sigma: float) -> float:
    """(1/pi) int_0^T* cos(t z) exp(-sigma t^alpha) dt by weighted quadrature.

    The exponential damping makes the integrand negligible past T* with
    sigma*T*^alpha = 40.  The quadrature works to an absolute accuracy near
    1e-11, so a value whose error estimate exceeds _QUAD_RTOL of the value
    itself raises NumericalError rather than being returned.
    """
    t_max = (40.0 / sigma) ** (1.0 / alpha)
    val, err = integrate.quad(
        lambda t: np.exp(-sigma * t**alpha),
        0.0,
        t_max,
        weight="cos",
        wvar=z,
        limit=4000,
        epsabs=1e-11,
    )
    if not err <= _QUAD_RTOL * abs(val):
        raise NumericalError(
            f"density inversion at z={z}: error estimate {err:.2e} too large "
            f"for the value {val:.2e}"
        )
    return val / pi


def stable_density(z: float, law: StableLaw) -> float:
    """f_alpha(z) = (1/pi) int_0^inf cos(t z) exp(-sigma t^alpha) dt.

    Summed as the tail series where that reaches _SERIES_RTOL, otherwise
    computed as the Fourier integral; raises NumericalError when neither
    route is accurate, e.g. where the density is far below the quadrature's
    absolute accuracy but the series cancels too much (alpha near 0).
    """
    z = abs(z)
    if z > 0.0:
        val = _tail_series(z, law.alpha, law.scale_exponent)
        if val is not None:
            return val
    return _fourier_density(z, law.alpha, law.scale_exponent)


# |zeta| range of d_zeta_quadrature: its result divides by |zeta|^3, which
# must stay a normal float.
_QUAD_ZETA_MIN = 1e-100
_QUAD_ZETA_MAX = 1e100


def _check_zeta(zeta: float) -> float:
    if zeta == 0.0:
        raise ParameterError("d(zeta) diverges at zeta = 0")
    if not isfinite(zeta):
        raise ParameterError(f"zeta must be finite, got {zeta}")
    return abs(zeta)


def _chunk_sums(s: np.ndarray, zeta: float, kernel: Kernel) -> tuple[float, float]:
    """Sums of S^2 K(S*zeta) and of its square over one chunk of draws.

    Its temporaries are freed on return, so a multi-zeta call holds one
    zeta's chunk-sized arrays at a time.
    """
    vals = truncated_terms(s, kernel(s * zeta))
    return float(vals.sum()), float((vals * vals).sum())


def d_zeta_mc(
    zeta: float | Sequence[float],
    alpha: float,
    n_draws: int,
    seed: RandomState,
    kernel: Kernel = Kernel("phi"),
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo value of E[S^2 K(S*zeta)] with a standard-error estimate.

    A float zeta gives (mean, stderr); a 1-D sequence gives one such pair
    per zeta, all from the same n_draws draws, and entry i equals the
    scalar call at zeta[i] with the same seed bit for bit.
    """
    zetas = np.asarray(zeta, dtype=float)
    scalar = zetas.ndim == 0
    zetas = np.atleast_1d(zetas)
    if zetas.ndim != 1 or zetas.size == 0:
        raise ParameterError("zeta must be a float or a non-empty 1-D sequence")
    for z in zetas:
        _check_zeta(z)
    if n_draws < 1:
        raise ParameterError("n_draws must be positive")
    gen = _as_generator(seed)
    law = StableLaw(alpha)
    totals = np.zeros((zetas.size, 2))
    chunk = 1_000_000
    remaining = n_draws
    while remaining > 0:
        m = min(chunk, remaining)
        s = law.sample(gen, m)
        for i, z in enumerate(zetas):
            totals[i] += _chunk_sums(s, float(z), kernel)
        remaining -= m
    out = []
    for total, total_sq in totals:
        mean = float(total / n_draws)
        var = max(float(total_sq / n_draws) - mean * mean, 0.0)
        out.append((mean, float(np.sqrt(var / n_draws))))
    return out[0] if scalar else out


def d_zeta_quadrature(
    zeta: float, law: StableLaw, kernel: Kernel = Kernel("phi")
) -> float:
    """int z^2 K(z*zeta) f_alpha(z) dz over the kernel support |z| <= radius/|zeta|.

    Raises NumericalError for |zeta| outside [_QUAD_ZETA_MIN, _QUAD_ZETA_MAX].
    """
    az = _check_zeta(zeta)
    if not _QUAD_ZETA_MIN <= az <= _QUAD_ZETA_MAX:
        raise NumericalError(
            f"zeta={zeta} is outside the quadrature's range "
            f"{_QUAD_ZETA_MIN:g} <= |zeta| <= {_QUAD_ZETA_MAX:g}"
        )

    def integrand(u):
        w = kernel(u)
        if w == 0.0:
            return 0.0
        return u * u * w * stable_density(u / az, law)

    # Integrate in the kernel variable u = z*zeta, splitting at breakpoints.
    points = sorted({1.0, 1.5, 2.0, kernel.support_radius})
    total = 0.0
    lo = 0.0
    for hi in points:
        if hi > lo:
            val, _ = integrate.quad(
                integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-9
            )
            total += val
            lo = hi
    return 2.0 * total / az**3


def d_zeta_asymptotic(
    zeta: float, alpha: float, kernel: Kernel = Kernel("phi")
) -> float:
    """Leading small-zeta term |zeta|^(alpha-2) * tail_constant * int K(u)|u|^(1-alpha) du."""
    az = _check_zeta(zeta)
    try:
        power = az ** (alpha - 2.0)
    except OverflowError:
        raise NumericalError(f"|zeta|^(alpha-2) overflows at zeta={zeta}") from None
    return power * tail_constant(alpha) * kernel_moment(kernel, alpha)
