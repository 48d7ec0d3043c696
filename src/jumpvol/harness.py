"""Monte Carlo experiment harness: config parsing, batched runs, report emission.

`replicate_map`, which mc-table and rate-check both run on, is the one place
that cuts Monte Carlo paths into blocks and names each block's stream.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .estimators import EstimatorConfig, fit_power_law, stacked_estimates
from .kernels import Kernel, cancelling_kernel, truncated_sums
from .levy import JumpLaw, ModelSpec, block_rows, draw_parts, form_increments
from .workers import fork_map, worker_count


@dataclass(frozen=True)
class CellConfig:
    alpha: float
    gamma: float
    beta: float
    k: float
    M: float = 4.0
    jumps: str = "stable"

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(beta=self.beta, k=self.k)

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
        if not self.cells:
            raise ParameterError("config has no [cell] section")
        # Validate every cell up front so no simulation starts on a bad config.
        for cell in self.cells:
            cell.estimator_config()
            cell.model(self.sigma)
            cancelling_kernel(cell.alpha, cell.M)  # Q_nc's

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
    "M": float,
}
# Global keys whose ExperimentConfig field has another name.
_PATH_FIELDS = {"csv": "csv_path", "json": "json_path"}
_CELL_KEYS = {
    "alpha": float,
    "gamma": float,
    "beta": float,
    "k": float,
    "M": float,
    "jumps": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value config format with [cell] sections.

    Global keys appear before the first section; each [cell] section
    describes one experiment cell and inherits the global M and jumps, which
    it may set again for itself.  M is the one of Q_nc's composite kernel;
    Q_n's kernel is always phi.  A config needs at least one [cell], and a
    key set twice in one [cell] is an error.  A global key set again
    replaces the earlier value: perfbench's `with_globals` appends its
    overrides after a config's own globals.
    """
    globals_: dict = {}
    cells: list[dict] = []
    current: dict | None = None
    set_on: dict = {}  # key -> line that set it in the current [cell]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[cell]":
            current = {}
            cells.append(current)
            set_on = {}
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
        if current is not None:
            if key in set_on:
                first = set_on[key]
                raise ParameterError(f"line {lineno}: {key} already set on line {first}")
            set_on[key] = lineno
        try:
            parsed = table[key](value)
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: bad value for {key}: {exc}") from exc
        (current if current is not None else globals_)[key] = parsed

    defaults = {k: globals_.pop(k) for k in ("M", "jumps") if k in globals_}
    cell_objs = []
    for i, cd in enumerate(cells):
        merged = {**defaults, **cd}
        missing = {"alpha", "gamma", "beta", "k"} - merged.keys()
        if missing:
            raise ParameterError(f"cell {i}: missing keys {sorted(missing)}")
        cell_objs.append(CellConfig(**merged))

    settings = {_PATH_FIELDS.get(k, k): v for k, v in globals_.items()}
    return ExperimentConfig(cells=tuple(cell_objs), **settings)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at `path`, or a ParameterError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not UTF-8 text: {exc.reason}") from None


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_text(path))


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
    workers: int = 1


REPORT_HEADER = (
    "alpha,gamma,beta,k,n,replicates,"
    "mean_e1,rms_e1,mean_e2,mean_e3,stderr_e1,stderr_e2,stderr_e3"
)


def replicate_map(fn, groups, replicates: int) -> tuple[list, int]:
    """fn's rows for `replicates` paths of every n of the groups, and the
    processes used.

    A group is (model, n, key).  Its paths come in blocks of `block_rows(n)`
    rows, the last one shorter, and the groups of one n are mapped together:
    one `levy.draw_parts` call draws block b of every group of that n, each
    with the key (*key, b), and fn maps their parts (Z, J), a list in group
    order, and the block's shape (rows, n) to one row per path.  What a
    block draws, and from which stream, is `draw_parts`'s.  The items of one
    `fork_map` are the pairs (g, b) of each n's first group g, in group
    order, and item (g, b) draws block b of every group of g's n and makes
    one fn call, so no row depends on the number of processes.
    Returns ([(rows, draw_s, fn_s) per n, in order of first appearance],
    workers): an n's rows are joined in replicate order; draw_s holds, per
    group of that n, the time its blocks' `draw_parts` took to yield its
    parts after the previous group's, so a part drawn once for several
    groups counts with the group it is yielded to first; fn_s is the time
    of the n's fn calls, in whichever process ran them.
    """
    by_n: dict = {}  # n -> its groups, in order
    for g, (_, n, _) in enumerate(groups):
        by_n.setdefault(n, []).append(g)
    items = [
        (members[0], b)
        for n, members in by_n.items()
        for b in range(-(-replicates // block_rows(n)))
    ]

    def run_block(item):
        first, b = item
        n = groups[first][1]
        members = by_n[n]
        step = block_rows(n)
        shape = (min(step, replicates - b * step), n)
        models = [groups[g][0] for g in members]
        keys = [(*groups[g][2], b) for g in members]
        parts, draw_s = [], []
        t0 = time.perf_counter()
        for part in draw_parts(models, keys, shape):
            parts.append(part)
            t1 = time.perf_counter()
            draw_s.append(t1 - t0)
            t0 = t1
        rows = fn(parts, shape)
        return rows, draw_s, time.perf_counter() - t0

    blocks: dict = {n: [] for n in by_n}  # n -> (rows, draw_s, fn_s) per block
    for (first, _), done in zip(items, fork_map(run_block, items)):
        blocks[groups[first][1]].append(done)
    per_n = []
    for got in blocks.values():
        rows, draw_s, fn_s = zip(*got)
        per_n.append((np.concatenate(rows), [sum(s) for s in zip(*draw_s)], sum(fn_s)))
    return per_n, worker_count(len(items))


def replicate_errors(config: ExperimentConfig) -> tuple[list, int]:
    """(E1, E2, E3) of every replicate of every cell, and the processes used.

    Returns ([(errors, simulate_s, estimate_s) per cell], workers); a cell's
    errors have shape (R, 3).  The cells of one jump law, (jumps, alpha),
    are one `replicate_map` group: group g, in order of first appearance,
    has the key (seed, g), and `levy.draw_parts` says what each group's
    stream draws.  Each block is estimated by one `stacked_estimates` call:
    cell i forms its increments from its group's parts (Z, J) in slice i of
    one stack.  A group's draw time is split equally among its cells, and a
    block's fn time, forming included in estimating, equally among all
    cells.
    """
    laws: dict = {}  # (jumps, alpha) -> the indices of its cells
    for i, cell in enumerate(config.cells):
        laws.setdefault((cell.jumps, cell.alpha), []).append(i)
    law_of = {i: g for g, members in enumerate(laws.values()) for i in members}

    models = [cell.model(config.sigma) for cell in config.cells]
    cells = [
        (cell.estimator_config(), cell.alpha, cell.gamma, cell.M)
        for cell in config.cells
    ]

    def errors(parts, shape):
        stack = np.empty((len(cells),) + shape)
        for i, model in enumerate(models):
            form_increments(model, parts[law_of[i]], shape, stack[i])
        rows = np.moveaxis(stacked_estimates(stack, cells), 0, 1)
        return (rows - config.sigma**2) * np.sqrt(config.n)

    def model(members):  # a jump cell's, if the law has one, so every part is drawn
        return models[max(members, key=lambda i: config.cells[i].gamma != 0.0)]

    groups = [
        (model(members), config.n, (config.seed, g))
        for g, members in enumerate(laws.values())
    ]
    [(rows, draw_s, estimate_s)], workers = replicate_map(
        errors, groups, config.replicates
    )
    per_cell = [None] * len(cells)
    for members, simulate_s in zip(laws.values(), draw_s):
        for i in members:
            per_cell[i] = rows[:, i], simulate_s / len(members), estimate_s / len(cells)
    return per_cell, workers


def _stderr(v: np.ndarray) -> float:
    return float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0


def run_mc(config: ExperimentConfig) -> McReport:
    """Run the Monte Carlo experiment, one path per (cell, replicate).

    Replicates whose E1, E2 or E3 is not finite are excluded; a cell with
    more than 1% exclusions is flagged, and a cell with no finite replicate
    is an error.  The blocks of replicates run on `fork_map`'s processes.
    """
    start = time.monotonic()
    reps = config.replicates
    results = []
    per_cell, workers = replicate_errors(config)
    for ci, (errs, simulate_s, estimate_s) in enumerate(per_cell):
        cell = config.cells[ci]
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
        config=config,
        results=tuple(results),
        wall_time=time.monotonic() - start,
        workers=workers,
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
        "workers": report.workers,
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


def rate_fit(
    model: ModelSpec,
    config: EstimatorConfig,
    n_grid,
    replicates: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical decay exponent of the mean bias of tqv over an n grid.

    Each n is one `replicate_map` group of `replicates` paths with key
    (seed, n), and its mean of Q_n - sigma^2 is taken over them in
    replicate order.  Fits log(mean bias) vs log(1/n) by `fit_power_law`.
    Every n must be at least 2, and `replicates` at least 1.
    """
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    n_grid = sorted(set(int(n) for n in n_grid))
    if n_grid and n_grid[0] < 2:
        raise ParameterError(f"every n in n_grid must be at least 2, got {n_grid[0]}")
    if len(n_grid) < 4 or n_grid[-1] < 8 * n_grid[0]:
        raise ParameterError("n grid must have >= 4 values spanning a factor of 8")

    def q_n(parts, shape):
        (block_parts,) = parts
        block = form_increments(model, block_parts, shape)
        return truncated_sums(block, config.threshold(shape[-1]), Kernel())[0]

    groups = [(model, n, (seed, n)) for n in n_grid]
    per_n, _ = replicate_map(q_n, groups, replicates)
    biases = [float(q.mean()) - model.sigma**2 for q, _, _ in per_n]
    return fit_power_law(n_grid, biases)


def run_rate_experiment(config: ExperimentConfig) -> str:
    """Fit the bias decay exponent per cell; returns the rate-report CSV text.

    The cells are fitted in turn, each by `rate_fit` with the config's seed,
    so every cell's group at a given n has the same key (seed, n).  Every
    cell draws the same unit normals Z from it, and stable cells the same
    uniforms and exponentials too: the cells' noise is coupled, and each
    cell draws those blocks again.
    """
    lines = [RATE_HEADER]
    for cell in config.cells:
        model, est_cfg = cell.model(config.sigma), cell.estimator_config()
        slope, stderr = rate_fit(
            model, est_cfg, config.n_grid, config.replicates, config.seed
        )
        expected = cell.beta * (2.0 - cell.alpha)
        lines.append(
            ",".join(
                _format(v) for v in [cell.alpha, cell.beta, expected, slope, stderr]
            )
        )
    return "\n".join(lines) + "\n"


def path_to_csv(increments: np.ndarray) -> str:
    """The path of these increments, observed at t = i/n from X_0 = 0, as CSV."""
    delta = 1.0 / len(increments)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "t", "x"])
    observations = np.concatenate(([0.0], np.cumsum(increments)))
    for i, x in enumerate(observations):
        writer.writerow([i, _format(i * delta), _format(float(x))])
    return buf.getvalue()


def path_from_csv(text: str, config: EstimatorConfig | None = None) -> np.ndarray:
    """The increments of the path of a CSV with header i,t,x, whose rows are
    i = 0, 1, ..., n in order with t within 1e-9 of i/n and a finite x.
    Given the estimator config, a path whose |x| reaches doubles more than
    1e-9 u_n apart is refused: its increments lost digits to rounding."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["i", "t", "x"]:
        raise ParameterError("path CSV must have header i,t,x")
    rows = []  # (line, i, t, x)
    for row in reader:
        if not row:
            continue
        try:
            rows.append((reader.line_num, int(row[0]), float(row[1]), float(row[2])))
        except (IndexError, ValueError):
            raise ParameterError(
                f"path CSV line {reader.line_num}: expected i,t,x, got {row}"
            ) from None
    if len(rows) < 3:
        raise ParameterError("path CSV must contain at least 3 observations")
    n = len(rows) - 1
    for want, (line, i, t, x) in enumerate(rows):
        if i != want or not abs(t - want / n) <= 1e-9:
            raise ParameterError(
                f"path CSV line {line}: expected i = {want}, t = {want / n!r}, "
                f"got i = {i}, t = {t!r}"
            )
        if not math.isfinite(x):
            raise ParameterError(f"path CSV line {line}: x must be finite, got {x!r}")
    x = np.array([x for *_, x in rows])
    level = float(np.abs(x).max())
    if config is not None and np.spacing(level) > 1e-9 * config.threshold(n):
        raise ParameterError(
            f"path CSV reaches |x| = {level!r}, where doubles are more than"
            " 1e-9 u_n apart: its increments lost digits to rounding"
        )
    return np.diff(x)
