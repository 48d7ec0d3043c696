"""Analytics for the Levy-measure-normalized symmetric stable law of index alpha.

Covers the density by its tail series or by Fourier inversion, and the
truncated second moment d(zeta) = E[S^2 K(S * zeta)] evaluated by Monte
Carlo, by quadrature against the density, and by its small-zeta power-law
approximation.  The law is named by alpha alone: its characteristic function
is exp(-sigma_alpha |t|^alpha), and its scale sigma_alpha and tail
coefficient (`stable_scale`, `tail_constant`) live in `levy`, next to the
sampler.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import exp, inf, isfinite, lgamma, log, pi, sin

import numpy as np
from scipy import integrate

from .errors import NumericalError, ParameterError, check_alpha
from .kernels import Kernel, kernel_moment, truncated_terms
from .levy import sample_stable_increment, stable_scale, tail_constant


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


def stable_density(z: float, alpha: float) -> float:
    """f_alpha(z) = (1/pi) int_0^inf cos(t z) exp(-sigma_alpha t^alpha) dt.

    Summed as the tail series where that reaches _SERIES_RTOL, otherwise
    computed as the Fourier integral; raises NumericalError when neither
    route is accurate, e.g. where the density is far below the quadrature's
    absolute accuracy but the series cancels too much (alpha near 0).
    """
    sigma = stable_scale(alpha)
    z = abs(z)
    if z > 0.0:
        val = _tail_series(z, alpha, sigma)
        if val is not None:
            return val
    return _fourier_density(z, alpha, sigma)


# |zeta| range of d_zeta_quadrature: its result divides by |zeta|^3, which
# must stay a normal float.  Past _QUAD_ZETA_RTOL of a piece's value, its
# error estimate is refused rather than returned.
_QUAD_ZETA_MIN = 1e-100
_QUAD_ZETA_MAX = 1e100
_QUAD_ZETA_RTOL = 1e-6


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
    seed,
    kernel: Kernel = Kernel("phi"),
) -> tuple[float, float] | list[tuple[float, float]]:
    """Monte Carlo value of E[S^2 K(S*zeta)] with a standard-error estimate.

    A float zeta gives (mean, stderr); a 1-D sequence gives one such pair
    per zeta, all from the same n_draws draws, and entry i equals the
    scalar call at zeta[i] with the same seed bit for bit.  `seed` is
    anything `np.random.default_rng` accepts.
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
    gen = np.random.default_rng(seed)
    totals = np.zeros((zetas.size, 2))
    chunk = 1_000_000
    remaining = n_draws
    while remaining > 0:
        m = min(chunk, remaining)
        s = sample_stable_increment(alpha, 1.0, gen, m)
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
    zeta: float, alpha: float, kernel: Kernel = Kernel("phi")
) -> float:
    """int z^2 K(z*zeta) f_alpha(z) dz over the kernel support |z| <= radius/|zeta|.

    In u = z*zeta the integral is about |zeta|^(1+alpha) at small zeta, so
    the absolute tolerance scales with it.  Raises NumericalError for |zeta|
    outside [_QUAD_ZETA_MIN, _QUAD_ZETA_MAX], and when a piece's error
    estimate exceeds both that tolerance and _QUAD_ZETA_RTOL of its value.
    """
    az = _check_zeta(zeta)
    check_alpha(alpha)
    if not _QUAD_ZETA_MIN <= az <= _QUAD_ZETA_MAX:
        raise NumericalError(
            f"zeta={zeta} is outside the quadrature's range "
            f"{_QUAD_ZETA_MIN:g} <= |zeta| <= {_QUAD_ZETA_MAX:g}"
        )

    def integrand(u):
        w = kernel(u)
        if w == 0.0:
            return 0.0
        return u * u * w * stable_density(u / az, alpha)

    # Integrate in the kernel variable u = z*zeta, splitting at breakpoints.
    points = sorted({1.0, 1.5, 2.0, kernel.support_radius})
    epsabs = 1e-12 * min(1.0, az ** (1.0 + alpha))
    total = 0.0
    lo = 0.0
    for hi in points:
        if hi > lo:
            val, err = integrate.quad(
                integrand, lo, hi, limit=400, epsabs=epsabs, epsrel=1e-9
            )
            if err > epsabs and err > _QUAD_ZETA_RTOL * abs(val):
                raise NumericalError(
                    f"d(zeta) quadrature at zeta={zeta} on [{lo:g}, {hi:g}]: "
                    f"error estimate {err:.2e} too large for the value {val:.2e}"
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
