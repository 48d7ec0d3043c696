"""Truncated quadratic variation, bias corrections, and rate diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import DiagnosticError, ParameterError, check_alpha
from .kernels import Kernel, cancelling_kernel, kernel_moment, truncated_terms
from .levy import ModelSpec, block_rows, replicate_block, simulate_path, tail_constant
from .workers import fork_map

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


def truncated_sums(
    increments: np.ndarray, threshold: float, *kernels: Kernel
) -> tuple[np.ndarray, ...]:
    """sum (Delta X_i)^2 K(Delta X_i / u_n) over the last axis, u_n = threshold.

    One sum per kernel K: the truncated quadratic variation of one path (a
    vector) or of a block of paths (one per row), over the terms of one
    `kernels.truncated_terms` pass.
    """
    with np.errstate(over="ignore"):  # a huge increment only leaves the support
        x = increments / threshold
    terms = truncated_terms(increments, x, *kernels)
    return tuple(t.sum(axis=-1) for t in terms)


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

    Nonpositive biases are dropped; fewer than 3 surviving points is an error.
    """
    n_values = np.asarray(n_values, dtype=float)
    biases = np.asarray(biases, dtype=float)
    keep = biases > 0.0
    if keep.sum() < 3:
        raise DiagnosticError(
            f"only {int(keep.sum())} positive bias points; need at least 3"
        )
    x = np.log(1.0 / n_values[keep])
    y = np.log(biases[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(keep.sum() - 2, 1)
    var = float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum())
    return float(slope), float(np.sqrt(var))


def estimates(
    increments: np.ndarray,
    config: EstimatorConfig,
    alpha: float,
    gamma: float,
    M: float,
) -> np.ndarray:
    """(Q_n, Q_n - jump bias, Q_nc) per row of increments, shape (..., 3).

    For one path (a vector) or a block of paths (one per row).  Q_n sums
    over phi, and Q_nc over the cancelling composite phi + c~ psi_M; the two
    share one sparse pass of `kernels.truncated_terms`.
    """
    n = increments.shape[-1]
    if increments.size == 0 or n < 2:
        raise ParameterError(
            "increments must hold one or more paths of at least 2 entries,"
            f" got shape {increments.shape}"
        )
    bias = jump_bias(alpha, config.beta, gamma, config.k, n)
    q, q_c = truncated_sums(
        increments, config.threshold(n), _PHI, cancelling_kernel(alpha, M)
    )
    return np.stack((q, q - bias, q_c), axis=-1)


def rate_fit(
    model: ModelSpec,
    config: EstimatorConfig,
    n_grid,
    replicates: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical decay exponent of the mean bias of tqv over an n grid.

    Simulates `replicates` paths per n in blocks of `block_rows(n)` rows,
    the last one shorter; block b of n is drawn by `levy.replicate_block`
    from stream (seed, n, b).  The (n, first replicate) pairs of the blocks
    are the items of `workers.fork_map`, and each n's mean of Q_n - sigma^2
    is taken over its replicates in replicate order, so the fit does not
    depend on the number of processes.  Fits log(mean bias) vs log(1/n).
    Every n must be at least 2, and `replicates` at least 1.
    """
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    n_grid = sorted(set(int(n) for n in n_grid))
    if n_grid and n_grid[0] < 2:
        raise ParameterError(f"every n in n_grid must be at least 2, got {n_grid[0]}")
    if len(n_grid) < 4 or n_grid[-1] < 8 * n_grid[0]:
        raise ParameterError("n grid must have >= 4 values spanning a factor of 8")
    blocks = [(n, lo) for n in n_grid for lo in range(0, replicates, block_rows(n))]

    def block_sums(item):
        n, lo = item
        block = replicate_block(model, n, (seed, n), lo, replicates)
        (q,) = truncated_sums(block, config.threshold(n), _PHI)
        return q

    sums = fork_map(block_sums, blocks)
    biases = []
    for n in n_grid:
        q_n = np.concatenate([s for (m, _), s in zip(blocks, sums) if m == n])
        biases.append(float(q_n.mean()) - model.sigma**2)
    return fit_power_law(n_grid, biases)
