"""Truncated quadratic variation, bias corrections, and rate diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DiagnosticError, ParameterError, check_alpha
from .kernels import Kernel, cancelling_kernel, kernel_moment, truncated_terms
from .levy import ModelSpec, PathSample, replicate_blocks, simulate_path, tail_constant


@dataclass(frozen=True)
class EstimatorConfig:
    beta: float
    k: float = 1.0
    kernel: Kernel = Kernel("phi")

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ParameterError(f"beta must lie in (0, 1/2), got {self.beta}")
        if self.k <= 0.0:
            raise ParameterError(f"k must be positive, got {self.k}")

    def threshold(self, n: int) -> float:
        return self.k * n ** (-self.beta)


@dataclass(frozen=True)
class EstimateResult:
    q_n: float
    correction_applied: float
    final_estimate: float
    normalized_error: float | None = None


def realized_volatility(path: PathSample) -> float:
    """Plain quadratic variation sum (Delta X_i)^2."""
    return float(np.sum(path.increments**2))


def truncated_sums(increments: np.ndarray, threshold: float, kernel: Kernel) -> np.ndarray:
    """sum (Delta X_i)^2 K(Delta X_i / u_n) over the last axis, u_n = threshold.

    The truncated quadratic variation of one path (a vector) or of a block
    of paths (one per row), over the terms of `kernels.truncated_terms`.
    """
    (terms,) = truncated_terms(increments, increments / threshold, kernel)
    return terms.sum(axis=-1)


def tqv(path: PathSample, config: EstimatorConfig) -> float:
    """Truncated quadratic variation sum (Delta X_i)^2 K(Delta X_i / (k n^-beta))."""
    return float(
        truncated_sums(path.increments, config.threshold(path.n), config.kernel)
    )


def jump_bias(
    alpha: float,
    beta: float,
    gamma: float,
    k: float,
    n: int,
    kernel: Kernel = Kernel("phi"),
) -> float:
    """First-order jump bias of the truncated quadratic variation.

    n^(-beta(2-alpha)) * C * |gamma|^alpha * k^(2-alpha) * int K(u)|u|^(1-alpha) du,
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
        * kernel_moment(kernel, alpha)
    )


def corrected_tqv(
    path: PathSample,
    config: EstimatorConfig,
    alpha: float,
    gamma: float,
    sigma_sq: float | None = None,
) -> EstimateResult:
    """Bias-subtracted estimator: tqv minus the first-order jump bias."""
    q = tqv(path, config)
    correction = jump_bias(alpha, config.beta, gamma, config.k, path.n, config.kernel)
    final = q - correction
    err = None if sigma_sq is None else (final - sigma_sq) * np.sqrt(path.n)
    return EstimateResult(q, correction, final, err)


def cancelled_kernel_tqv(
    path: PathSample,
    config: EstimatorConfig,
    alpha: float,
    M: float = 4.0,
    sigma_sq: float | None = None,
) -> EstimateResult:
    """Estimator with the composite kernel whose weighted moment vanishes."""
    comp = cancelling_kernel(alpha, M)
    q = tqv(path, replace(config, kernel=comp))
    err = None if sigma_sq is None else (q - sigma_sq) * np.sqrt(path.n)
    return EstimateResult(q, 0.0, q, err)


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
    coarse = PathSample(fine.increments[0::2] + fine.increments[1::2])
    q_n = tqv(coarse, config)
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


@lru_cache(maxsize=64)
def _cell_constants(
    config: EstimatorConfig, alpha: float, gamma: float, M: float, n: int
) -> tuple[Kernel, float]:
    """The cancelling composite kernel and the jump bias of one Monte Carlo cell."""
    bias = jump_bias(alpha, config.beta, gamma, config.k, n, config.kernel)
    return cancelling_kernel(alpha, M), bias


def normalized_errors(
    increments: np.ndarray,
    config: EstimatorConfig,
    alpha: float,
    gamma: float,
    M: float,
    sigma_sq: float,
) -> np.ndarray:
    """(E1, E2, E3) per row of an increment block, shape (rows, 3).

    The sqrt(n)-normalized errors of tqv, corrected_tqv and
    cancelled_kernel_tqv, bit-identical to those per-path routes.  The
    estimator kernel and the composite kernel share one sparse pass of
    `kernels.truncated_terms`; c~ and the jump bias are computed once per
    cell, not per block.
    """
    n = increments.shape[-1]
    composite, bias = _cell_constants(config, alpha, gamma, M, n)
    est_terms, comp_terms = truncated_terms(
        increments, increments / config.threshold(n), config.kernel, composite
    )
    q = est_terms.sum(axis=-1)
    root_n = np.sqrt(n)
    errors = np.empty((len(q), 3))
    errors[:, 0] = (q - sigma_sq) * root_n
    errors[:, 1] = (q - bias - sigma_sq) * root_n
    errors[:, 2] = (comp_terms.sum(axis=-1) - sigma_sq) * root_n
    return errors


def rate_fit(
    model: ModelSpec,
    config: EstimatorConfig,
    n_grid,
    replicates: int,
    seed: int,
    sigma_sq: float | None = None,
) -> tuple[float, float]:
    """Empirical decay exponent of the mean bias of tqv over an n grid.

    Simulates `replicates` paths per n with streams keyed by (seed, n, r),
    averages Q_n - sigma^2, and fits log(mean bias) vs log(1/n).
    """
    n_grid = sorted(set(int(n) for n in n_grid))
    if len(n_grid) < 4 or n_grid[-1] < 8 * n_grid[0]:
        raise DiagnosticError("n grid must have >= 4 values spanning a factor of 8")
    truth = sigma_sq if sigma_sq is not None else model.sigma**2
    biases = []
    for n in n_grid:
        acc = np.empty(replicates)
        for lo, block in replicate_blocks(model, n, (seed, n), replicates):
            acc[lo : lo + len(block)] = truncated_sums(
                block, config.threshold(n), config.kernel
            )
        biases.append(float(acc.mean()) - truth)
    slope, stderr = fit_power_law(n_grid, biases)
    return slope, stderr
