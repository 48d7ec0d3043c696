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
    with np.errstate(all="ignore"):  # the formula is kept only where it applies
        tail = np.exp(1.0 / 3.0 + 1.0 / (ax**2 - 4.0))
    out = np.where(ax < 1.0, 1.0, np.where(ax < 2.0, tail, 0.0))
    return float(out) if out.ndim == 0 else out


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
    with np.errstate(all="ignore"):  # each formula is kept only where it applies
        rise = 1.0 / 3.0 + 1.0 / ((3.0 - ax) ** 2 - 4.0)
        fall = 1.0 / (ax**2 - M * M) - 5.0 / 21.0 + 4.0 / (4.0 * M * M - 9.0)
        out = np.exp(np.where(ax > 1.5, fall, rise))
    out = np.where((ax > 1.0) & (ax < M), out, 0.0)
    return float(out) if out.ndim == 0 else out


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


# Share of candidates above which `truncation_pass` forms its terms by one
# multiply over the block rather than by indexing every candidate.  Index
# arrays cost more than full-size masks once many entries are candidates;
# on d(zeta)'s pieces, shares from 0.05 to 0.25 timed the same.
_DENSE_SHARE = 0.1
_TINY = np.finfo(float).tiny


def truncation_pass(dx, u: float, *kernels: Kernel):
    """Yield the terms dx^2 K(dx / u) of each kernel in turn, u > 0.

    One buffer holds the terms, and each kernel writes its own there in
    turn: use or copy a yield before asking for the next.  Every term is
    the dense dx * dx * K(dx / u) bit for bit where K != 0, and 0 where K
    is 0, even where dx^2 overflows or dx is not finite (inf * 0 is NaN).
    dx is squared once.  Where dx^2 < u^2, |dx / u| <= 1 and the square is
    the term.  Rounding is monotone, so the other entries, the candidates,
    hold every |dx / u| > 1 (and the few <= 1 that rounding lets in, where
    K is 1 too).  dx / u is formed, phi evaluated once and psi once per M,
    on the candidates only, or, where more than _DENSE_SHARE of the entries
    are candidates and u^2 and the bound are normal, on the band u^2 <=
    dx^2 < bound only, after one multiply zeroes the entries beyond it.
    """
    dx = np.asarray(dx, dtype=float)
    with np.errstate(over="ignore"):  # a huge increment only leaves the support
        terms = dx * dx
        u2 = u * u
        reach = max(k.support_radius for k in kernels) * u
        # past rounding: no dx^2 >= bound has |dx / u| < radius
        bound = reach * reach * (1.0 + 2.0**-40)
        at = ~(terms < u2)  # the candidates
        dense = np.count_nonzero(at) > _DENSE_SHARE * at.size
        if dense and _TINY <= u2 and bound < inf:
            inside = terms < bound
            at &= inside
            if terms.max(initial=0.0) < inf:  # False at NaN too
                np.multiply(terms, inside, out=terms)
            else:
                terms[~inside] = 0.0
        at = np.flatnonzero(at)
        squares = terms.take(at)
        x = dx.take(at) / u
        phi_x = phi(x)
        psi_x = {k.M: psi(x, k.M) for k in kernels if k.c}
        finite = squares.max(initial=0.0) < inf  # False at NaN too
        turns = []
        for k in kernels:
            values = phi_x + k.c * psi_x[k.M] if k.c else phi_x
            keep = True if finite else values != 0.0
            turns.append(
                np.multiply(squares, values, np.zeros_like(values), where=keep)
            )
    for band_terms in turns:
        terms.put(at, band_terms)
        yield terms


def truncated_sums(dx, u: float, *kernels: Kernel) -> tuple[np.ndarray, ...]:
    """Sums of dx^2 K(dx / u) over the last axis, one per kernel, u > 0.

    The truncated quadratic variation of one path (a vector) or of each row
    of a block of paths: the row sums of `truncation_pass`, each taken
    before the next kernel writes its terms.
    """
    return tuple(t.sum(axis=-1) for t in truncation_pass(dx, u, *kernels))


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


@lru_cache  # `estimates` asks for it again on every block of a cell
def cancelling_kernel(alpha: float, M: float) -> Kernel:
    """Composite kernel with the moment-annihilating coefficient built in."""
    return Kernel(c=c_tilde(alpha, M), M=M)
