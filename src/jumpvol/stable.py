"""Analytics for the Levy-measure-normalized symmetric stable law of index alpha.

Covers the density by Fourier inversion on fixed nodes or by its tail
series, and the
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
from math import ceil, cos, exp, inf, isfinite, lgamma, log, pi, sin

import numpy as np

from .errors import NumericalError, ParameterError, check_alpha
from .kernels import Kernel, kernel_moment, truncated_terms
from .levy import sample_stable_increment, stable_scale, tail_constant, tanh_sinh


_EPS = np.finfo(float).eps
# Relative accuracy the tail series must reach before it is used, the one
# (rounding) it is preferred at, and the relative error estimate above
# which a density is refused.
_SERIES_RTOL = 1e-11
_SERIES_RTOL_ROUNDING = 4.0 * _EPS
_QUAD_RTOL = 1e-4
_SERIES_MAX_TERMS = 200


@lru_cache(maxsize=64)
def _series_coefficients(alpha: float) -> tuple[tuple[float, float], ...]:
    """(lgamma(k alpha+1) - lgamma(k+1), sin(k pi alpha/2)) for k = 1..max terms."""
    return tuple(
        (lgamma(k * alpha + 1.0) - lgamma(k + 1.0), sin(k * pi * alpha / 2.0))
        for k in range(1, _SERIES_MAX_TERMS + 1)
    )


def _tail_series_with_error(
    z: float, alpha: float, sigma: float, rtol: float
) -> tuple[float, float] | None:
    """Tail series of the density and its error estimate, or None where it
    does not reach rtol.

    f(z) = (1/(pi z)) sum_k (-1)^(k+1) Gamma(k alpha+1)/k! sin(k pi alpha/2) x^k
    with x = sigma z^-alpha.

    The series converges for alpha < 1 and is asymptotic for alpha >= 1
    (convergent for x < 1 at alpha = 1).  Its error is estimated as the
    magnitude of the first omitted term (truncation) plus the rounding unit
    times the sum of the terms' magnitudes (cancellation).  Returns None
    when that estimate exceeds rtol of the sum, or when the terms start to
    grow for alpha >= 1, or once the cancellation alone exceeds rtol of the
    first term, which bounds the sum.
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
        if mag + _EPS * abs_sum <= rtol * abs(total):
            return total / (pi * z), (mag + _EPS * abs_sum) / (pi * z)
        if (alpha >= 1.0 and mag > prev) or _EPS * abs_sum > rtol * first:
            return None
        term = mag * sine
        total += term if k % 2 else -term
        abs_sum += abs(term)
        prev = mag
    return None


def _tail_series(z: float, alpha: float, sigma: float) -> float | None:
    """The tail series' value at _SERIES_RTOL, or None where it does not reach it."""
    found = _tail_series_with_error(z, alpha, sigma, _SERIES_RTOL)
    return None if found is None else found[0]


# The rotated form's trapezoid rule in s = log r: step 1/16 on |s| <= 80.
_LOG_R = np.arange(-1280, 1281) / 16.0
# Rows of z per block of the inversion; its buffer stays under a MB.
_Z_BLOCK = 64
# Largest z T of the cosine form: its nodes are about 500 / (z T) per period
# of cos(t z) at mid-range, too few past this.
_COSINE_MAX_ZT = 256.0


def _nested(weights: np.ndarray) -> np.ndarray:
    """A rule's weights as one column, and the rule at twice the step (every
    other node, weight doubled) as a second, so that one product gives both
    sums; their distance is the error estimate used throughout."""
    coarse = np.zeros_like(weights)
    coarse[::2] = 2.0 * weights[::2]
    return np.column_stack([weights, coarse])


@lru_cache(maxsize=64)
def _cosine_rule(alpha: float, sigma: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes t and nested weights of (1/pi) int_0^T cos(t z) exp(-sigma t^alpha) dt.

    Tanh-sinh nodes on [0, T], with sigma T^alpha = 40.  The last item
    bounds the integral past T, e^(-40) / (pi * d(sigma t^alpha)/dt at T),
    which matters where both the density and alpha are small, as the
    integrand then decays slowly.
    """
    t_max = (40.0 / sigma) ** (1.0 / alpha)
    t, weights = tanh_sinh(0.0, t_max)
    tail = exp(-40.0) * t_max / (40.0 * alpha * pi)
    return t, _nested(weights * np.exp(-sigma * t**alpha) / pi), tail


@lru_cache(maxsize=64)
def _laplace_rule(alpha: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and nested weights of the rotated form, for alpha < 1.

    f(z) = (1/pi) int_0^inf exp(-z r - sigma r^alpha cos(pi alpha/2))
    sin(sigma r^alpha sin(pi alpha/2)) dr, the Fourier integral with its
    path turned onto the imaginary axis, by the trapezoid rule in log r.
    It does not oscillate in z, but its integrand turns oscillatory as
    alpha nears 1.  Nodes whose weight underflows are dropped.
    """
    r = np.exp(_LOG_R)
    ra = sigma * r**alpha
    damping = np.exp(-ra * cos(pi * alpha / 2.0))
    weights = _nested(r / 16.0 * damping * np.sin(ra * sin(pi * alpha / 2.0)) / pi)
    keep = weights[:, 0] != 0.0
    return r[keep], weights[keep]


def _decay(x: np.ndarray) -> np.ndarray:
    """e^-x in place.  Past x = 700 it is set to 0 rather than computed, as
    numpy's exp slows down by an order of magnitude where it underflows."""
    beyond = x > 700.0
    np.minimum(x, 700.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x[beyond] = 0.0
    return x


def _cosine(x: np.ndarray) -> np.ndarray:
    return np.cos(x, out=x)


def _nested_sums(kernel, z: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """sum_j weights_j kernel(z_i nodes_j) for each z_i and its error estimate.

    Works in blocks of _Z_BLOCK values of z through one buffer, which
    `kernel` overwrites; fresh multi-MB temporaries would each cost more in
    page faults than the arithmetic.
    """
    sums = np.empty((z.size, 2))
    buf = np.empty((min(z.size, _Z_BLOCK), nodes.size))
    for lo in range(0, z.size, _Z_BLOCK):
        block = z[lo : lo + _Z_BLOCK]
        with np.errstate(over="ignore"):  # a huge z r only decays to 0
            values = np.multiply.outer(block, nodes, out=buf[: block.size])
        sums[lo : lo + block.size] = kernel(values) @ weights
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])


def _inversion(
    z: np.ndarray, alpha: float, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """f at each z >= 0 of a 1-D array on fixed nodes, with error estimates.

    For alpha < 1 the rotated form gives every value its nodes reach.  The
    cosine form (1/pi) int_0^T cos(t z) exp(-sigma t^alpha) dt is used
    where that estimate is above _SERIES_RTOL of the value and z T is at
    most _COSINE_MAX_ZT (past that its nodes would not resolve the cosine);
    each z takes the value whose estimate is smaller.  An estimate is the
    distance between two nested rules, plus the cosine form's cut-off.
    Values neither form reaches are NaN, with an infinite estimate.
    """
    val = np.full(z.size, np.nan)
    err = np.full(z.size, np.inf)
    if alpha < 1.0:
        r, r_weights = _laplace_rule(alpha, sigma)
        near = z * r[0] <= 700.0  # farther out, e^(-z r) is 0 at every node
        val[near], err[near] = _nested_sums(_decay, z[near], r, r_weights)
    t, t_weights, t_tail = _cosine_rule(alpha, sigma)
    todo = ~(err <= _SERIES_RTOL * np.abs(val)) & (z * t[-1] <= _COSINE_MAX_ZT)
    if todo.any():
        v, e = _nested_sums(_cosine, z[todo], t, t_weights)
        e += t_tail
        better = e < err[todo]
        val[todo] = np.where(better, v, val[todo])
        err[todo] = np.where(better, e, err[todo])
    return val, err


def _fourier_density(z, alpha: float, sigma: float) -> np.ndarray:
    """The inversion's values alone, shaped like z."""
    zs = np.abs(np.ravel(z).astype(float))
    return _inversion(zs, alpha, sigma)[0].reshape(np.shape(z))


def _density(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """f at each |z| of a 1-D array, with error estimates.

    One vectorized inversion gives every value.  Where its error estimate
    is above rounding, the tail series replaces it if the series gets to
    rounding there (at large z); where the estimate also exceeds
    _SERIES_RTOL (where the inversion's nodes do not resolve its
    integrand), the series at _SERIES_RTOL does.  A value whose estimate
    still exceeds _QUAD_RTOL of the value raises NumericalError rather
    than being returned.
    """
    sigma = stable_scale(alpha)
    z = np.abs(z)
    val, err = _inversion(z, alpha, sigma)
    above_rounding = ~(err <= _SERIES_RTOL_ROUNDING * np.abs(val))
    for i in np.flatnonzero(above_rounding & (z > 0.0)):
        found = _tail_series_with_error(z[i], alpha, sigma, _SERIES_RTOL_ROUNDING)
        if found is None and not err[i] <= _SERIES_RTOL * abs(val[i]):
            found = _tail_series_with_error(z[i], alpha, sigma, _SERIES_RTOL)
        if found is not None:
            val[i], err[i] = found
    bad = ~(err <= _QUAD_RTOL * np.abs(val))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NumericalError(
            f"density at z={z[i]}: error estimate {err[i]:.2e} too large for "
            f"the value {val[i]:.2e}"
        )
    return val, err


def stable_density(z: float, alpha: float) -> float:
    """f_alpha(z) = (1/pi) int_0^inf cos(t z) exp(-sigma_alpha t^alpha) dt.

    Computed as the Fourier integral on fixed nodes, or as the tail series
    where that is the more accurate (at large z); raises NumericalError
    when neither route is accurate.
    """
    return float(_density(np.array([z], dtype=float), alpha)[0][0])


# |zeta| range of d_zeta_quadrature: its result divides by |zeta|^3, which
# must stay a normal float.  Past _QUAD_ZETA_RTOL of the total, its error
# estimate is refused rather than returned.  Each term carries rounding of
# a few units of _EPS, from the density and the kernel.  A piece in log u
# spans at most two decades, so its nodes resolve the turn near |zeta| at
# every |zeta|.
_QUAD_ZETA_MIN = 1e-100
_QUAD_ZETA_MAX = 1e100
_QUAD_ZETA_RTOL = 1e-6
_QUAD_ZETA_ROUNDING = 8.0 * _EPS
_QUAD_ZETA_LOG_PIECE = log(100.0)


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
    (vals,) = truncated_terms(s, s * zeta, kernel)
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

    Integrated in u = z*zeta on fixed tanh-sinh nodes over pieces split at
    the kernel's breakpoints, with the density evaluated once for all
    nodes.  For |zeta| < 1, [|zeta|, 1] is integrated in log u, in pieces of
    at most _QUAD_ZETA_LOG_PIECE: there the integrand turns from u^2 f(0)
    into the power law |zeta|^(1+alpha) u^(1-alpha) near u = |zeta|, which
    nodes spaced evenly in u would not resolve.  The error estimate of the
    total is its distance to the rule at twice the step, plus each term's
    magnitude times the density's own error estimate and a few units of
    rounding, so it counts where a composite kernel's parts cancel.
    Raises NumericalError for |zeta| outside [_QUAD_ZETA_MIN,
    _QUAD_ZETA_MAX], and when that estimate exceeds _QUAD_ZETA_RTOL of the
    total.
    """
    az = _check_zeta(zeta)
    check_alpha(alpha)
    if not _QUAD_ZETA_MIN <= az <= _QUAD_ZETA_MAX:
        raise NumericalError(
            f"zeta={zeta} is outside the quadrature's range "
            f"{_QUAD_ZETA_MIN:g} <= |zeta| <= {_QUAD_ZETA_MAX:g}"
        )
    knee = min(az, 1.0)
    pieces = [tanh_sinh(0.0, knee)]
    edges = np.linspace(log(knee), 0.0, ceil(-log(knee) / _QUAD_ZETA_LOG_PIECE) + 1)
    for lo, hi in zip(edges, edges[1:]):
        s, weights = tanh_sinh(lo, hi)
        pieces.append((np.exp(s), weights * np.exp(s)))
    points = (1.0, *sorted({1.5, 2.0, kernel.support_radius}))
    pieces += [tanh_sinh(lo, hi) for lo, hi in zip(points, points[1:])]
    # Every other node: the rule at step 1/32, nested with the one at 1/16.
    u = np.concatenate([nodes[::2] for nodes, _ in pieces])
    weights = np.vstack([_nested(2.0 * w[::2]) for _, w in pieces])
    k = kernel(u)
    on = k != 0.0
    terms = np.zeros(u.size)
    term_errs = np.zeros(u.size)
    f, f_err = _density(u[on] / az, alpha)
    scale = u[on] ** 2 * k[on]
    terms[on] = scale * f
    term_errs[on] = np.abs(scale) * (f_err + _QUAD_ZETA_ROUNDING * np.abs(f))
    total, coarse = map(float, terms @ weights)
    err = abs(total - coarse) + float(term_errs @ weights[:, 0])
    if not err <= _QUAD_ZETA_RTOL * abs(total):
        raise NumericalError(
            f"d(zeta) quadrature at zeta={zeta}: error estimate {err:.2e} too "
            f"large for the value {total:.2e}"
        )
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
