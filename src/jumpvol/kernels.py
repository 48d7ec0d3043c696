"""Smooth truncation kernels and their singular-weight moments.

`phi` is a smooth version of the indicator of [-1, 1] supported on [-2, 2].
`psi` is a smooth bump vanishing on |x| <= 1 and |x| >= M.  Every kernel is
phi + c*psi(., M): phi itself at c = 0, and at c = c_tilde(alpha, M) the
composite whose weighted moment is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, prod
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


def _checked(dx, u, kernels):
    """(u, kernels, radius) for `truncation_pass`: floats u and widest
    support radius where u is one number and every kernel is shared, and
    otherwise one of each per cell, shaped to broadcast over dx, with each
    kernel list a tuple.  A ParameterError unless every u is positive and
    finite and every kernel list holds one kernel per cell."""
    if not kernels:
        raise ParameterError("a truncation pass needs at least one kernel")
    one_u = isinstance(u, float) or np.ndim(u) == 0
    if one_u and all(isinstance(k, Kernel) for k in kernels):
        if not 0.0 < u < inf:  # False at NaN too
            raise ParameterError(f"u must be positive and finite, got {u}")
        return float(u), kernels, max(k.support_radius for k in kernels)
    cells = len(dx) if dx.ndim else 0
    kernels = [k if isinstance(k, Kernel) else tuple(k) for k in kernels]
    radius = np.zeros(cells)
    for k in kernels:
        if isinstance(k, Kernel):
            radius = np.maximum(radius, k.support_radius)
        elif k and len(k) == cells:
            radius = np.maximum(radius, [c.support_radius for c in k])
        else:
            raise ParameterError(f"a kernel list needs one kernel per cell ({cells})")
    u = np.asarray(u, dtype=float)
    if u.ndim and u.shape != (cells,):
        raise ParameterError(f"u needs one threshold per cell ({cells})")
    u = np.broadcast_to(u, (cells,))
    bad = np.flatnonzero(~((0.0 < u) & (u < inf)))
    if bad.size:
        raise ParameterError(f"u must be positive and finite, at cells {bad.tolist()}")
    lead = (cells,) + (1,) * (dx.ndim - 1)
    return u.reshape(lead), kernels, radius.reshape(lead)


def truncation_pass(dx, u, *kernels):
    """Yield the terms dx^2 K(dx / u) of each kernel in turn.

    dx is a path or block with one u and shared kernels, or a stack whose
    leading index is a cell, with one u per cell and any kernel a list of
    one per cell; every u must be positive and finite.  One buffer holds
    the terms, and each kernel writes its own there in turn: use or copy a
    yield before asking for the next.  Every term is the dense
    dx * dx * K(dx / u) bit for bit where K != 0, and 0 where K is 0, even
    where dx^2 overflows or dx is not finite (inf * 0 is NaN).  dx is
    squared once.  Where dx^2 < u^2, |dx / u| <= 1 and the square is the
    term.  Rounding is monotone, so the other entries, the candidates, hold
    every |dx / u| > 1 (and the few <= 1 that rounding lets in, where K is
    1 too).  dx / u is formed, phi evaluated once and psi once per M, on
    the candidates of every cell only, each with its cell's u and c.  Where
    more than _DENSE_SHARE of the entries are candidates and every u^2 and
    bound is normal, only the band u^2 <= dx^2 < bound is indexed, after
    one multiply zeroes the entries beyond it.
    """
    dx = np.asarray(dx, dtype=float)
    u, kernels, radius = _checked(dx, u, kernels)
    per_cell = not isinstance(u, float)
    with np.errstate(over="ignore"):  # a huge increment only leaves the support
        terms = dx * dx
        u2 = u * u
        reach = radius * u
        # past rounding: no dx^2 >= bound has |dx / u| < radius
        bound = reach * reach * (1.0 + 2.0**-40)
        at = ~(terms < u2)  # the candidates
        dense = np.count_nonzero(at) > _DENSE_SHARE * at.size
        if per_cell:
            normal = _TINY <= u2.min(initial=inf) and bound.max(initial=0.0) < inf
        else:
            normal = _TINY <= u2 and bound < inf
        if dense and normal:
            inside = terms < bound
            at &= inside
            if terms.max(initial=0.0) < inf:  # False at NaN too
                np.multiply(terms, inside, out=terms)
            else:
                terms[~inside] = 0.0
        at = np.flatnonzero(at)
        squares = terms.take(at)
        x = dx.take(at)
        cell = at // prod(dx.shape[1:]) if per_cell else None  # of each candidate
        x /= u.ravel().take(cell) if per_cell else u
        phi_x = phi(x)
        psi_x = {}  # M -> psi(x, M), for every M of a kernel with c != 0
        for k in kernels:
            for one in (k,) if isinstance(k, Kernel) else k:
                if one.c and one.M not in psi_x:
                    psi_x[one.M] = psi(x, one.M)
        finite = squares.max(initial=0.0) < inf  # False at NaN too
        turns = []
        for k in kernels:
            values = _kernel_values(k, phi_x, psi_x, cell)
            keep = True if finite else values != 0.0
            turns.append(
                np.multiply(squares, values, np.zeros_like(values), where=keep)
            )
    for band_terms in turns:
        terms.put(at, band_terms)
        yield terms


def _kernel_values(kernel, phi_x, psi_x, cell):
    """phi + c psi_M at the candidates, from their phi and psi of each M,
    with one kernel's c and M or with those of each candidate's cell."""
    if isinstance(kernel, Kernel):
        return phi_x + kernel.c * psi_x[kernel.M] if kernel.c else phi_x
    c = np.array([k.c for k in kernel])
    if not c.any():
        return phi_x
    ms = list(psi_x)
    if len(ms) == 1:
        psi_cell = psi_x[ms[0]]
    else:  # each candidate's psi of its cell's M (any M where c is 0)
        which = np.array([ms.index(k.M) if k.c else 0 for k in kernel])
        psi_cell = np.stack([psi_x[m] for m in ms])[which[cell], np.arange(cell.size)]
    return phi_x + c[cell] * psi_cell


def truncated_sums(dx, u, *kernels) -> tuple[np.ndarray, ...]:
    """Sums of dx^2 K(dx / u) over the last axis, one per kernel, u > 0.

    The truncated quadratic variation of one path (a vector), of each row
    of a block of paths, or of each row of each cell of a stack, with u
    and the kernels as in `truncation_pass`: its row sums, each taken
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


@lru_cache  # `stacked_estimates` asks for it again on every block of a cell
def cancelling_kernel(alpha: float, M: float) -> Kernel:
    """Composite kernel with the moment-annihilating coefficient built in."""
    return Kernel(c=c_tilde(alpha, M), M=M)
