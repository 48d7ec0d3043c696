"""Smooth truncation kernels and their singular-weight moments.

`phi` is a smooth version of the indicator of [-1, 1] supported on [-2, 2].
`psi` is a smooth bump vanishing on |x| <= 1 and |x| >= M, used to build
composite kernels phi + c*psi whose weighted moment can be made zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, check_alpha
from .levy import tanh_sinh

PHI = "phi"
PSI = "psi"
COMPOSITE = "composite"


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


def psi(x, M: float):
    """Smooth bump supported on 1 < |x| < M, M > 3/2.

    Rises from 0 at |x| = 1 to exp(-5/21) at |x| = 3/2 and decays back to 0
    at |x| = M; both branch formulas agree at the junction |x| = 3/2.
    """
    if M <= 1.5:
        raise ParameterError(f"M must exceed 3/2, got {M}")
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


def composite(x, c: float, M: float):
    """phi(x) + c * psi(x, M): equals 1 on |x| <= 1 and 0 on |x| >= max(2, M)."""
    return phi(x) + c * psi(x, M)


@dataclass(frozen=True)
class Kernel:
    """Immutable kernel descriptor; `c` is only meaningful for composites."""

    kind: str
    M: float = 4.0
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in (PHI, PSI, COMPOSITE):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind in (PSI, COMPOSITE) and self.M <= 1.5:
            raise ParameterError(f"M must exceed 3/2, got {self.M}")

    @property
    def support_radius(self) -> float:
        if self.kind == PHI:
            return 2.0
        if self.kind == PSI:
            return self.M
        return max(2.0, self.M)

    def __call__(self, x):
        if self.kind == PHI:
            return phi(x)
        if self.kind == PSI:
            return psi(x, self.M)
        return composite(x, self.c, self.M)


def truncated_terms(dx, x, *kernels: Kernel) -> tuple[np.ndarray, ...]:
    """Terms dx^2 K(x) of a truncated sum, one array per kernel.

    One sparse pass serves every kernel.  |x| and the interior |x| < 1, where
    phi and composites are 1 and psi is 0, are found once; each kernel is
    then evaluated only on the band 1 <= |x| < widest support radius, which
    holds few entries.  A term is zero wherever its kernel is, even where
    dx^2 overflows or x is not finite; kernels that go negative (composites)
    keep their negative terms.  Every term equals the dense dx * dx * K(x)
    where K(x) != 0, so sums over the terms are the dense sums bit for bit.
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
    # The last kernel that is 1 on the interior takes `squares` itself; any
    # before it take copies made before that one writes its band.
    last = max(
        (i for i, kernel in enumerate(kernels) if kernel.kind != PSI), default=-1
    )
    out = []
    for i, kernel in enumerate(kernels):
        if kernel.kind == PSI:
            terms = np.zeros(dx.shape)
        else:
            terms = squares if i == last else squares.copy()
        terms.put(band, band_squares * kernel(ax_band))
        out.append(terms)
    return tuple(out)


def parse_kernel(
    spec: str, alpha: float | None = None, M: float | None = None
) -> Kernel:
    """Parse `phi`, `psi:M=<real>` or `composite:M=<real>`.

    `M=` is the only parameter, and only `psi` and `composite` take it.  A
    bare `psi` or `composite` takes `M` (4 when it is None); a spec whose
    `M=` differs from a given `M` is refused.  Composite kernels get
    c = c_tilde(alpha, M), which requires alpha.
    """
    name, _, rest = spec.strip().partition(":")
    if name not in (PHI, PSI, COMPOSITE):
        raise ParameterError(f"unknown kernel spec {spec!r}")
    spec_M = None
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        if name == PHI or key.strip() != "M":
            raise ParameterError(f"unknown kernel parameter {item!r} in {spec!r}")
        try:
            spec_M = float(value)
        except ValueError:
            raise ParameterError(f"bad kernel parameter {item!r} in {spec!r}") from None
    if name == PHI:
        return Kernel(PHI)
    if M is not None and spec_M not in (None, M):
        raise ParameterError(f"kernel {spec!r} disagrees with M = {M:g}")
    M = spec_M if spec_M is not None else (4.0 if M is None else M)
    if name == PSI:
        return Kernel(PSI, M=M)
    if alpha is None:
        raise ParameterError("composite kernels need alpha to determine c")
    return cancelling_kernel(alpha, M)


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
    lo = _weighted_integral(lambda u: psi(u, M), 1.0, 1.5, alpha)
    hi = _weighted_integral(lambda u: psi(u, M), 1.5, M, alpha)
    return 2.0 * (lo + hi)


def kernel_moment(kernel: Kernel, alpha: float) -> float:
    """int_R kernel(u) |u|^(1-alpha) du, split at the kernel breakpoints."""
    check_alpha(alpha)
    if kernel.kind == PHI:
        return _phi_moment(alpha)
    if kernel.kind == PSI:
        return _psi_moment(alpha, kernel.M)
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
    return Kernel(COMPOSITE, M=M, c=c_tilde(alpha, M))
