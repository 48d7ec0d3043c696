"""Truncated quadratic variation of a path or of each row of a block of paths,
its bias corrections, and the power-law fit of the bias decay."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf

import numpy as np

from .errors import DiagnosticError, ParameterError, check_alpha
from .kernels import Kernel, cancelling_kernel, kernel_moment, truncated_sums
from .levy import ModelSpec, simulate_path, tail_constant

# The kernel that smooths Q_n's threshold.
_PHI = Kernel()


@dataclass(frozen=True)
class EstimatorConfig:
    """Threshold u_n = k n^(-beta) of Q_n, whose kernel is always phi."""

    beta: float
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ParameterError(f"beta must lie in (0, 1/2), got {self.beta}")
        if not 0.0 < self.k < inf:
            raise ParameterError(f"k must be positive and finite, got {self.k}")

    def threshold(self, n: int) -> float:
        return self.k * n ** (-self.beta)


def tqv(increments: np.ndarray, config: EstimatorConfig) -> float:
    """Truncated quadratic variation sum (Delta X_i)^2 phi(Delta X_i / (k n^-beta))
    of one path's increments, a vector of at least 2 entries."""
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 1 or increments.size < 2:
        raise ParameterError(
            "increments must be a vector of at least 2 entries,"
            f" got shape {increments.shape}"
        )
    (q,) = truncated_sums(increments, config.threshold(increments.size), _PHI)
    return float(q)


@lru_cache  # `stacked_estimates` asks for it again on every block of a cell
def jump_bias(alpha: float, beta: float, gamma: float, k: float, n: int) -> float:
    """First-order jump bias of the truncated quadratic variation.

    n^(-beta(2-alpha)) * C * |gamma|^alpha * k^(2-alpha) * int phi(u)|u|^(1-alpha) du,
    where C is the density tail coefficient of the simulated stable law
    (tail_constant, identically 1 in this normalization).
    """
    if gamma == 0.0:
        return 0.0
    check_alpha(alpha)
    if n < 2:
        raise ParameterError(f"n must be at least 2, got {n}")
    return (
        n ** (-beta * (2.0 - alpha))
        * tail_constant(alpha)
        * abs(gamma) ** alpha
        * k ** (2.0 - alpha)
        * kernel_moment(_PHI, alpha)
    )


def richardson(q_n: float, q_2n: float, alpha: float, beta: float) -> float:
    """(Q_n - 2^(beta(2-alpha)) Q_2n) / (1 - 2^(beta(2-alpha)))."""
    factor = 2.0 ** (beta * (2.0 - alpha))
    if factor == 1.0:
        raise ParameterError("richardson undefined when beta*(2-alpha) = 0")
    return (q_n - factor * q_2n) / (1.0 - factor)


def richardson_paired(
    model: ModelSpec, config: EstimatorConfig, alpha: float, n: int, seed
) -> tuple[float, float, float]:
    """Richardson extrapolation on a shared path: simulate at 2n, sum pairs for n.

    Returns (q_n, q_2n, extrapolated).
    """
    fine = simulate_path(model, 2 * n, seed)
    q_n = tqv(fine[0::2] + fine[1::2], config)
    q_2n = tqv(fine, config)
    return q_n, q_2n, richardson(q_n, q_2n, alpha, config.beta)


def fit_power_law(n_values, biases) -> tuple[float, float]:
    """Least-squares slope of log(bias) against log(1/n), with its standard error.

    Every bias must be positive, and there must be at least 3 points; a
    DiagnosticError says which n values break the first.
    """
    n_values = np.asarray(n_values, dtype=float)
    biases = np.asarray(biases, dtype=float)
    bad = ~(biases > 0.0)  # NaN too
    if bad.any():
        raise DiagnosticError(
            f"mean bias not positive at n = {[int(n) for n in n_values[bad]]};"
            " a log-log fit needs every bias positive"
        )
    if len(biases) < 3:
        raise DiagnosticError(f"only {len(biases)} bias points; need at least 3")
    x = np.log(1.0 / n_values)
    y = np.log(biases)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    var = float(resid @ resid) / (len(x) - 2) / float(((x - x.mean()) ** 2).sum())
    return float(slope), float(np.sqrt(var))


def stacked_estimates(stack: np.ndarray, cells) -> np.ndarray:
    """(Q_n, Q_n - jump bias, Q_nc) per row of each cell of a stack, shape
    (cells, ..., 3).

    stack[i] holds the increments, one path or a block of paths, of cell i
    = (config, alpha, gamma, M).  Q_n sums over phi at the cell's threshold,
    and Q_nc over its cancelling composite phi + c~ psi_M; every cell's two
    sums come from one pass of `kernels.truncated_sums` over the stack.
    """
    stack = np.asarray(stack, dtype=float)
    n = stack.shape[-1] if stack.ndim > 1 else 0
    if stack.size == 0 or n < 2:
        raise ParameterError(
            "increments must hold one or more paths of at least 2 entries,"
            f" got shape {stack.shape[1:]}"
        )
    if len(cells) != len(stack):
        raise ParameterError(f"{len(cells)} cells for a stack of {len(stack)}")
    u = [config.threshold(n) for config, *_ in cells]
    bias = [jump_bias(a, config.beta, g, config.k, n) for config, a, g, _ in cells]
    composites = [cancelling_kernel(a, M) for _, a, _, M in cells]
    q, q_c = truncated_sums(stack, u, _PHI, composites)
    out = np.empty(q.shape + (3,))
    out[..., 0], out[..., 2] = q, q_c
    out[..., 1] = q - np.reshape(bias, (-1,) + (1,) * (q.ndim - 1))
    return out


def estimates(
    increments: np.ndarray,
    config: EstimatorConfig,
    alpha: float,
    gamma: float,
    M: float,
) -> np.ndarray:
    """(Q_n, Q_n - jump bias, Q_nc) per row of increments, shape (..., 3).

    For one path (a vector) or a block of paths (one per row): the one-cell
    case of `stacked_estimates`.
    """
    stack = np.asarray(increments, dtype=float)[np.newaxis]
    return stacked_estimates(stack, [(config, alpha, gamma, M)])[0]
