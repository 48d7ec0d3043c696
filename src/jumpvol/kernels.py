"""Smooth truncation kernels and their singular-weight moments.

`phi` is a smooth version of the indicator of [-1, 1] supported on [-2, 2].
`psi` is a smooth bump vanishing on |x| <= 1 and |x| >= M.  Every kernel is
phi + c*psi(., M): phi itself at c = 0, and at c = c_tilde(alpha, M) the
composite whose weighted moment is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite
from numbers import Real

import numpy as np

from .errors import ParameterError, check_alpha
from .levy import tanh_sinh

def phi(x):
    """Smooth indicator: 1 on |x| < 1, exp(1/3 + 1/(x^2 - 4)) on [1, 2), 0 beyond."""
    ax = np.abs(np.asarray(x, dtype=float))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.zeros_like(ax)
    out[ax < 1.0] = 1.0
    mid = (ax >= 1.0) & (ax < 2.0)
    out[mid] = np.exp(1.0 / 3.0 + 1.0 / (ax[mid] ** 2 - 4.0))
    return float(out[0]) if scalar else out


def _check_M(M: float) -> None:
    """Raise ParameterError unless 3/2 < M < inf (so also for NaN) and psi's
    4 M^2 is finite: above M of about 6.7e153 c_tilde would be NaN."""
    if not 1.5 < M < inf:
        raise ParameterError(f"M must be finite and exceed 3/2, got {M}")
    if not 4.0 * M * M < inf:
        raise ParameterError(
            f"M must be finite and exceed 3/2, with 4 M^2 finite; got {M}"
        )


def psi(x, M: float):
    """Smooth bump supported on 1 < |x| < M, M > 3/2.

    Rises from 0 at |x| = 1 to exp(-5/21) at |x| = 3/2 and decays back to 0
    at |x| = M; both branch formulas agree at the junction |x| = 3/2.
    """
    _check_M(M)
    ax = np.abs(np.asarray(x, dtype=float))
    scalar = ax.ndim == 0
    ax = np.atleast_1d(ax)
    out = np.zeros_like(ax)
    lo = (ax > 1.0) & (ax <= 1.5)
    out[lo] = np.exp(1.0 / 3.0 + 1.0 / ((3.0 - ax[lo]) ** 2 - 4.0))
    hi = (ax > 1.5) & (ax < M)
    out[hi] = np.exp(
        1.0 / (ax[hi] ** 2 - M * M) - 5.0 / 21.0 + 4.0 / (4.0 * M * M - 9.0)
    )
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Kernel:
    """The kernel phi + c * psi(., M): phi at the default c = 0.

    It is 1 on |x| <= 1 and 0 on |x| >= 2, or on |x| >= max(2, M) when c
    is not 0.  c must be a finite number, and M is checked whatever c is.
    """

    c: float = 0.0
    M: float = 4.0

    def __post_init__(self):
        if not (isinstance(self.c, Real) and isfinite(self.c)):
            raise ParameterError(f"c must be a finite number, got {self.c!r}")
        _check_M(self.M)

    @property
    def support_radius(self) -> float:
        return max(2.0, self.M) if self.c else 2.0

    def __call__(self, x):
        return phi(x) + self.c * psi(x, self.M) if self.c else phi(x)


def truncated_terms(dx, x, *kernels: Kernel) -> tuple[np.ndarray, ...]:
    """Terms dx^2 K(x) of a truncated sum, one array per kernel.

    One sparse pass serves every kernel.  |x| and the interior |x| < 1, where
    every kernel is 1, are found once; each kernel is then evaluated only on
    the band 1 <= |x| < widest support radius, which holds few entries.  A
    term is zero wherever its kernel is, even where dx^2 overflows or x is
    not finite; kernels that go negative (composites) keep their negative
    terms.  Every term equals the dense dx * dx * K(x) where K(x) != 0, so
    sums over the terms are the dense sums bit for bit.
    """
    dx = np.asarray(dx, dtype=float)
    # One full-size buffer holds |x|, then the terms of the interior.
    squares = np.abs(np.asarray(x, dtype=float))
    outside = np.flatnonzero(~(squares < 1.0))
    radius = max(kernel.support_radius for kernel in kernels)
    band = outside[squares.take(outside) < radius]
    ax_band = squares.take(band)
    with np.errstate(over="ignore"):
        np.multiply(dx, dx, out=squares)
    squares.put(outside, 0.0)
    band_squares = dx.take(band)
    band_squares *= band_squares
    # The last kernel takes `squares` itself; the others take copies made
    # before it writes its band.
    out = []
    for i, kernel in enumerate(kernels):
        terms = squares if i == len(kernels) - 1 else squares.copy()
        terms.put(band, band_squares * kernel(ax_band))
        out.append(terms)
    return tuple(out)


def _weighted_integral(f, lo: float, hi: float, alpha: float) -> float:
    """int_lo^hi f(u) u^(1-alpha) du on the fixed tanh-sinh nodes.

    The moments' integrands are smooth on each piece, so the rule gives
    them to rounding (within 1e-15 relative of 30-digit quadrature).
    """
    u, weights = tanh_sinh(lo, hi)
    return float(np.dot(weights, f(u) * u ** (1.0 - alpha)))


@lru_cache(maxsize=None)
def _phi_moment(alpha: float) -> float:
    # |u|^{1-alpha} is integrable at 0 for alpha < 2; on [0, 1] the kernel is
    # identically 1 so the singular cell is the exact power integral.
    inner = 1.0 / (2.0 - alpha)
    outer = _weighted_integral(phi, 1.0, 2.0, alpha)
    return 2.0 * (inner + outer)


@lru_cache(maxsize=None)
def _psi_moment(alpha: float, M: float) -> float:
    _check_M(M)  # before the nodes on [3/2, M] are placed
    lo = _weighted_integral(lambda u: psi(u, M), 1.0, 1.5, alpha)
    hi = _weighted_integral(lambda u: psi(u, M), 1.5, M, alpha)
    return 2.0 * (lo + hi)


def kernel_moment(kernel: Kernel, alpha: float) -> float:
    """int_R kernel(u) |u|^(1-alpha) du, split at the kernel breakpoints."""
    check_alpha(alpha)
    if not kernel.c:
        return _phi_moment(alpha)
    return _phi_moment(alpha) + kernel.c * _psi_moment(alpha, kernel.M)


def c_tilde(alpha: float, M: float) -> float:
    """Coefficient making the weighted moment of phi + c*psi vanish."""
    check_alpha(alpha)
    psi_mom = _psi_moment(alpha, M)
    if abs(psi_mom) < 1e-14:
        raise ParameterError(f"psi moment vanishes for M={M}, alpha={alpha}")
    return -_phi_moment(alpha) / psi_mom


def cancelling_kernel(alpha: float, M: float) -> Kernel:
    """Composite kernel with the moment-annihilating coefficient built in."""
    return Kernel(c=c_tilde(alpha, M), M=M)
