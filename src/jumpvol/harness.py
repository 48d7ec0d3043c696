"""Monte Carlo experiment harness: config parsing, batched runs, report emission."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DiagnosticError, NumericalError, ParameterError
from .estimators import EstimatorConfig, normalized_errors, rate_fit
from .kernels import parse_kernel
from .levy import JumpLaw, ModelSpec, PathSample, replicate_blocks


@dataclass(frozen=True)
class CellConfig:
    alpha: float
    gamma: float
    beta: float
    k: float
    kernel: str = "phi"
    M: float = 4.0
    jumps: str = "stable"

    def estimator_config(self) -> EstimatorConfig:
        kernel = parse_kernel(self.kernel, self.alpha, self.M)
        return EstimatorConfig(beta=self.beta, k=self.k, kernel=kernel)

    def model(self, sigma: float) -> ModelSpec:
        return ModelSpec(
            drift=0.0,
            sigma=sigma,
            gamma=self.gamma,
            jump_law=JumpLaw(kind=self.jumps, alpha=self.alpha),
        )

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[CellConfig, ...]
    n: int = 700
    replicates: int = 500
    sigma: float = 1.0
    seed: int = 0
    n_grid: tuple[int, ...] = ()
    csv_path: str = ""
    json_path: str = ""

    def __post_init__(self):
        if self.replicates < 1:
            raise ParameterError(f"replicates must be >= 1, got {self.replicates}")
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        # Validate every cell up front so no simulation starts on a bad config.
        for cell in self.cells:
            cell.estimator_config()
            cell.model(self.sigma)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "replicates": self.replicates,
            "sigma": self.sigma,
            "seed": self.seed,
            "n_grid": list(self.n_grid),
            "cells": [c.as_dict() for c in self.cells],
        }


def _int_list(value: str) -> tuple[int, ...]:
    """Integers separated by commas or blanks."""
    return tuple(int(v) for v in value.replace(",", " ").split())


_GLOBAL_KEYS = {
    "n": int,
    "replicates": int,
    "sigma": float,
    "seed": int,
    "csv": str,
    "json": str,
    "n_grid": _int_list,
    "jumps": str,
    "kernel": str,
    "M": float,
}
_CELL_KEYS = {
    "alpha": float,
    "gamma": float,
    "beta": float,
    "k": float,
    "kernel": str,
    "M": float,
    "jumps": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value config format with [cell] sections.

    Global keys appear before the first section; each [cell] section
    describes one experiment cell and inherits global kernel/M/jumps defaults.
    """
    globals_: dict = {}
    cells: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[cell]":
            current = {}
            cells.append(current)
            continue
        if line.startswith("["):
            raise ParameterError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        table = _CELL_KEYS if current is not None else _GLOBAL_KEYS
        if key not in table:
            where = "cell" if current is not None else "global"
            raise ParameterError(f"line {lineno}: unknown {where} key {key!r}")
        try:
            parsed = table[key](value)
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: bad value for {key}: {exc}") from exc
        (current if current is not None else globals_)[key] = parsed

    defaults = {
        k: globals_[k] for k in ("kernel", "M", "jumps") if k in globals_
    }
    cell_objs = []
    for i, cd in enumerate(cells):
        merged = {**defaults, **cd}
        missing = {"alpha", "gamma", "beta", "k"} - merged.keys()
        if missing:
            raise ParameterError(f"cell {i}: missing keys {sorted(missing)}")
        cell_objs.append(CellConfig(**merged))

    return ExperimentConfig(
        cells=tuple(cell_objs),
        n=globals_.get("n", 700),
        replicates=globals_.get("replicates", 500),
        sigma=globals_.get("sigma", 1.0),
        seed=globals_.get("seed", 0),
        n_grid=globals_.get("n_grid", ()),
        csv_path=globals_.get("csv", ""),
        json_path=globals_.get("json", ""),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class CellResult:
    cell: CellConfig
    n: int
    replicates: int
    excluded: int
    mean_e1: float
    rms_e1: float
    mean_e2: float
    mean_e3: float
    stderr_e1: float
    stderr_e2: float
    stderr_e3: float
    flagged: bool = False
    simulate_s: float = 0.0
    estimate_s: float = 0.0

    def row(self) -> list:
        return [
            self.cell.alpha,
            self.cell.gamma,
            self.cell.beta,
            self.cell.k,
            self.n,
            self.replicates,
            self.mean_e1,
            self.rms_e1,
            self.mean_e2,
            self.mean_e3,
            self.stderr_e1,
            self.stderr_e2,
            self.stderr_e3,
        ]


@dataclass(frozen=True)
class McReport:
    config: ExperimentConfig
    results: tuple[CellResult, ...]
    wall_time: float = 0.0


REPORT_HEADER = (
    "alpha,gamma,beta,k,n,replicates,"
    "mean_e1,rms_e1,mean_e2,mean_e3,stderr_e1,stderr_e2,stderr_e3"
)


def replicate_errors(config: ExperimentConfig, cell_idx: int) -> tuple:
    """(E1, E2, E3) of every replicate of one cell, shape (R, 3), plus stage times.

    Replicate r is the path of stream (seed, cell-index, r); the paths are
    simulated and estimated in blocks of `block_rows(n)` rows, so a
    replicate's errors do not depend on which block it falls in.  Returns
    (errors, simulate_s, estimate_s).
    """
    cell = config.cells[cell_idx]
    est_cfg = cell.estimator_config()
    errors = np.empty((config.replicates, 3))
    simulate_s = estimate_s = 0.0
    blocks = replicate_blocks(
        cell.model(config.sigma), config.n, (config.seed, cell_idx), config.replicates
    )
    t0 = time.perf_counter()
    for lo, block in blocks:
        t1 = time.perf_counter()
        errors[lo : lo + len(block)] = normalized_errors(
            block, est_cfg, cell.alpha, cell.gamma, cell.M, config.sigma**2
        )
        simulate_s += t1 - t0
        t0 = time.perf_counter()
        estimate_s += t0 - t1
    return errors, simulate_s, estimate_s


def _stderr(v: np.ndarray) -> float:
    return float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0


def run_mc(config: ExperimentConfig) -> McReport:
    """Run the Monte Carlo experiment, one path per (cell, replicate).

    Replicates whose E1, E2 or E3 is not finite are excluded; a cell with
    more than 1% exclusions is flagged, and a cell with no finite replicate
    is an error.
    """
    start = time.monotonic()
    reps = config.replicates
    results = []
    for ci, cell in enumerate(config.cells):
        errs, simulate_s, estimate_s = replicate_errors(config, ci)
        ok = errs[np.isfinite(errs).all(axis=1)]
        succeeded = ok.shape[0]
        if succeeded == 0:
            raise NumericalError(
                f"cell {ci} (alpha={cell.alpha}): every replicate failed"
            )
        e1, e2, e3 = ok[:, 0], ok[:, 1], ok[:, 2]
        results.append(
            CellResult(
                cell=cell,
                n=config.n,
                replicates=succeeded,
                excluded=reps - succeeded,
                mean_e1=float(e1.mean()),
                rms_e1=float(np.sqrt(np.mean(e1**2))),
                mean_e2=float(e2.mean()),
                mean_e3=float(e3.mean()),
                stderr_e1=_stderr(e1),
                stderr_e2=_stderr(e2),
                stderr_e3=_stderr(e3),
                flagged=reps - succeeded > 0.01 * reps,
                simulate_s=simulate_s,
                estimate_s=estimate_s,
            )
        )
    return McReport(
        config=config, results=tuple(results), wall_time=time.monotonic() - start
    )


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report_to_csv(report: McReport) -> str:
    lines = [REPORT_HEADER]
    for res in report.results:
        lines.append(",".join(_format(v) for v in res.row()))
    return "\n".join(lines) + "\n"


def report_to_json(report: McReport) -> str:
    header = REPORT_HEADER.split(",")
    payload = {
        "config": report.config.as_dict(),
        "wall_time": report.wall_time,
        "cells": [dict(zip(header, res.row())) for res in report.results],
        "excluded": [res.excluded for res in report.results],
        "flagged": [res.flagged for res in report.results],
        "simulate_s": [res.simulate_s for res in report.results],
        "estimate_s": [res.estimate_s for res in report.results],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_report(report: McReport, fmt: str, path: str) -> None:
    if fmt == "csv":
        text = report_to_csv(report)
    elif fmt == "json":
        text = report_to_json(report)
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


RATE_HEADER = "alpha,beta,expected_slope,fitted_slope,stderr"


def run_rate_experiment(config: ExperimentConfig) -> str:
    """Fit the bias decay exponent per cell; returns the rate-report CSV text."""
    if len(config.n_grid) < 4:
        raise DiagnosticError("rate experiment requires an n_grid of >= 4 values")
    lines = [RATE_HEADER]
    for cell in config.cells:
        slope, stderr = rate_fit(
            cell.model(config.sigma),
            cell.estimator_config(),
            config.n_grid,
            config.replicates,
            config.seed,
            sigma_sq=config.sigma**2,
        )
        expected = cell.beta * (2.0 - cell.alpha)
        lines.append(
            ",".join(
                _format(v) for v in [cell.alpha, cell.beta, expected, slope, stderr]
            )
        )
    return "\n".join(lines) + "\n"


def path_to_csv(path_sample) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "t", "x"])
    for i, x in enumerate(path_sample.observations):
        writer.writerow([i, _format(i * path_sample.delta), _format(float(x))])
    return buf.getvalue()


def path_from_csv(text: str) -> PathSample:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["i", "t", "x"]:
        raise ParameterError("path CSV must have header i,t,x")
    xs = []
    for row in reader:
        if not row:
            continue
        xs.append(float(row[2]))
    if len(xs) < 3:
        raise ParameterError("path CSV must contain at least 3 observations")
    return PathSample.from_observations(xs)
