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
from .kernels import Kernel, kernel_moment, truncation_pass
from .levy import sample_stable_increment, stable_scale, tail_constant, tanh_sinh
from .workers import fork_map


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


def _libm(f, x: np.ndarray) -> np.ndarray:
    """The scalar function f at each entry of the 1-D array x."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _tail_series_with_error(
    z: np.ndarray, alpha: float, sigma: float, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tail series of the density at each z > 0 of a 1-D array, and its
    error estimate; NaN with an infinite estimate where it does not reach
    rtol.

    f(z) = (1/(pi z)) sum_k (-1)^(k+1) Gamma(k alpha+1)/k! sin(k pi alpha/2) x^k
    with x = sigma z^-alpha.

    The series converges for alpha < 1 and is asymptotic for alpha >= 1
    (convergent for x < 1 at alpha = 1).  Its error is estimated as the
    magnitude of the first omitted term (truncation) plus the rounding unit
    times the sum of the terms' magnitudes (cancellation).  A z is refused
    when that estimate exceeds rtol of the sum, or when the terms start to
    grow for alpha >= 1, or once the cancellation alone exceeds rtol of the
    first term, which bounds the sum.

    One loop over the term index k serves every z still live; each z's sum
    takes its terms in the order a loop at that z alone would.  The logs
    and exponentials are libm's (`math.log`, `math.exp`) mapped over the
    live entries: numpy's differ by an ulp at some z, which the composite
    kernel's cancellation in d(zeta) would amplify past 1e-12.
    """
    val = np.full(z.size, np.nan)
    err = np.full(z.size, np.inf)
    log_x = log(sigma) - alpha * _libm(log, z)
    # Past x = e^5 the cancellation rules the series out for every alpha < 1,
    # and its terms would overflow before the checks below see that.
    live = np.flatnonzero(~(log_x >= (0.0 if alpha >= 1.0 else 5.0)))
    log_x, pi_z = log_x[live], pi * z[live]
    # rtol of the first term, which bounds the sum
    cap = rtol * _libm(exp, lgamma(alpha + 1.0) + log_x)
    total, abs_sum = np.zeros((2, live.size))
    prev = np.full(live.size, inf)
    for k, (log_coef, sine) in enumerate(_series_coefficients(alpha), start=1):
        if not live.size:
            break
        mag = _libm(exp, log_coef + k * log_x)
        bound = mag + _EPS * abs_sum
        done = bound <= rtol * np.abs(total)
        stop = done | (_EPS * abs_sum > cap)
        if alpha >= 1.0:
            stop |= mag > prev
        if stop.any():
            at = live[done]
            val[at] = total[done] / pi_z[done]
            err[at] = bound[done] / pi_z[done]
            go = ~stop
            live, log_x, pi_z, cap = live[go], log_x[go], pi_z[go], cap[go]
            total, abs_sum, mag = total[go], abs_sum[go], mag[go]
        term = mag * sine
        total += term if k % 2 else -term
        abs_sum += np.abs(term)
        prev = mag
    return val, err


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


def _density(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """f at each |z| of a 1-D array, with error estimates.

    One vectorized inversion gives every value.  Where its error estimate
    is above rounding, the tail series replaces it if the series gets to
    rounding there (at large z); where the estimate also exceeds
    _SERIES_RTOL (where the inversion's nodes do not resolve its
    integrand), the series at _SERIES_RTOL does.  The series runs once per
    rtol, over all the z that need it.  A value whose estimate still
    exceeds _QUAD_RTOL of the value raises NumericalError rather than being
    returned.
    """
    sigma = stable_scale(alpha)
    z = np.abs(z)
    val, err = _inversion(z, alpha, sigma)
    at = np.flatnonzero(~(err <= _SERIES_RTOL_ROUNDING * np.abs(val)) & (z > 0.0))
    v, e = _tail_series_with_error(z[at], alpha, sigma, _SERIES_RTOL_ROUNDING)
    retry = ~(e < inf) & ~(err[at] <= _SERIES_RTOL * np.abs(val[at]))
    v[retry], e[retry] = _tail_series_with_error(
        z[at[retry]], alpha, sigma, _SERIES_RTOL
    )
    found = e < inf
    val[at[found]], err[at[found]] = v[found], e[found]
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


def _check_quadrature_range(zeta: float) -> None:
    if not _QUAD_ZETA_MIN <= abs(zeta) <= _QUAD_ZETA_MAX:
        raise NumericalError(
            f"zeta={zeta} is outside the quadrature's range "
            f"{_QUAD_ZETA_MIN:g} <= |zeta| <= {_QUAD_ZETA_MAX:g}"
        )


def _piece_sums(s: np.ndarray, zeta: float, kernel: Kernel) -> tuple[float, float]:
    """Sums of S^2 K(S*zeta) and of its square over one piece of draws."""
    (terms,) = truncation_pass(s, 1.0 / abs(zeta), kernel)
    total = float(terms.sum())
    return total, float(np.square(terms, out=terms).sum())


# Draws per piece of the Monte Carlo in d_zeta, each from its own stream.
# Its own constant, so that tuning the simulation blocks never moves d(zeta)'s
# draws.
MC_PIECE_DRAWS = 16_384


def d_zeta(
    zeta: float | Sequence[float],
    alpha: float,
    n_draws: int,
    seed: int,
    kernel: Kernel = Kernel(),
) -> tuple[float, float, float] | list[tuple[float, float, float]]:
    """E[S^2 K(S*zeta)] by Monte Carlo, with its standard error, and by quadrature.

    A float zeta gives (mc, stderr, quadrature); a 1-D sequence gives one
    such triple per zeta, the Monte Carlo of every zeta from the same
    n_draws draws, and entry i equals the scalar call at zeta[i] bit for
    bit.  Every argument is checked, every zeta against the quadrature's
    range too, before anything is drawn.

    The draws come in pieces of MC_PIECE_DRAWS, the last one shorter; piece
    i is drawn by `levy.sample_stable_increment` from its own stream
    (seed, i), so `seed` must be a non-negative integer.  One `fork_map`
    holds the quadrature of each zeta, then the pieces; the quadratures,
    the longest items, start first, and whichever process is free takes the
    next item.  Each piece is summed for every zeta while it is in cache.
    The piece sums are added in piece order, so nothing depends on the
    number of processes.
    """
    zetas = np.asarray(zeta, dtype=float)
    scalar = zetas.ndim == 0
    zetas = np.atleast_1d(zetas)
    if zetas.ndim != 1 or zetas.size == 0:
        raise ParameterError("zeta must be a float or a non-empty 1-D sequence")
    zetas = [float(z) for z in zetas]
    for z in zetas:
        _check_zeta(z)
    check_alpha(alpha)
    if not isinstance(n_draws, (int, np.integer)) or n_draws < 1:
        raise ParameterError(f"n_draws must be a positive integer, got {n_draws!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    for z in zetas:
        _check_quadrature_range(z)
    pieces = -(-n_draws // MC_PIECE_DRAWS)

    def item(i):
        if i < len(zetas):
            return d_zeta_quadrature(zetas[i], alpha, kernel)
        piece = i - len(zetas)
        size = min(MC_PIECE_DRAWS, n_draws - piece * MC_PIECE_DRAWS)
        s = sample_stable_increment(alpha, 1.0, (seed, piece), size)
        return [_piece_sums(s, z, kernel) for z in zetas]

    results = fork_map(item, range(len(zetas) + pieces))
    totals = np.zeros((len(zetas), 2))
    for sums in results[len(zetas) :]:
        totals += sums
    out = []
    for (total, total_sq), quad in zip(totals, results):
        mean = float(total / n_draws)
        var = max(float(total_sq / n_draws) - mean * mean, 0.0)
        out.append((mean, float(np.sqrt(var / n_draws)), quad))
    return out[0] if scalar else out


def d_zeta_quadrature(
    zeta: float, alpha: float, kernel: Kernel = Kernel()
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
    _check_quadrature_range(zeta)
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
    zeta: float, alpha: float, kernel: Kernel = Kernel()
) -> float:
    """Leading small-zeta term |zeta|^(alpha-2) * tail_constant * int K(u)|u|^(1-alpha) du."""
    az = _check_zeta(zeta)
    try:
        power = az ** (alpha - 2.0)
    except OverflowError:
        raise NumericalError(f"|zeta|^(alpha-2) overflows at zeta={zeta}") from None
    return power * tail_constant(alpha) * kernel_moment(kernel, alpha)
