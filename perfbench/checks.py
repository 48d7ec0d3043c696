"""Output checks for the benchmark workloads.

Each check takes report text and returns a list of problems; an empty list
means the output is correct.  Monte Carlo means are compared with reference
reports committed under reference/ for the default seed: a mean passes when
it lies within `Z_MEANS` combined standard errors of the reference mean, so
any seed passes while a shifted estimator or a lost row does not.
"""

from __future__ import annotations

import csv
import io
import json
import math

TABLE_HEADER = (
    "alpha,gamma,beta,k,n,replicates,"
    "mean_e1,rms_e1,mean_e2,mean_e3,stderr_e1,stderr_e2,stderr_e3"
).split(",")
DZETA_HEADER = "zeta,alpha,mc,quadrature,asymptotic,stderr".split(",")

Z_MEANS = 5.0
Z_DZETA = 4.0


def parse_csv(text: str, header: list[str]) -> tuple[list[dict], list[str]]:
    """Rows as dicts of floats, and the problems found reading them."""
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        return [], [f"header {got} != {header}"]
    rows, problems = [], []
    for i, raw in enumerate(reader):
        if len(raw) != len(header):
            problems.append(f"row {i}: {len(raw)} fields, expected {len(header)}")
            continue
        try:
            row = {key: float(value) for key, value in zip(header, raw)}
        except ValueError as exc:
            problems.append(f"row {i}: {exc}")
            continue
        bad = [key for key, value in row.items() if not math.isfinite(value)]
        if bad:
            problems.append(f"row {i}: non-finite {bad}")
        rows.append(row)
    return rows, problems


def _same_keys(i: int, row: dict, ref: dict, keys) -> list[str]:
    return [
        f"row {i}: {key} = {row[key]!r}, reference {ref[key]!r}"
        for key in keys
        if row[key] != ref[key]
    ]


def _within(i: int, name: str, value, se, ref_value, ref_se, z: float) -> list[str]:
    tol = z * math.hypot(se, ref_se)
    if abs(value - ref_value) <= tol:
        return []
    return [f"row {i}: {name} = {value!r} is {abs(value - ref_value):.4g} from "
            f"reference {ref_value!r}, more than {z} combined stderr ({tol:.4g})"]


def check_table(csv_text: str, json_text: str, ref_text: str, replicates: int) -> list[str]:
    """mc-table report: schema, one row per reference cell, finite values,
    replicates + excluded = R per cell, and each mean near the reference."""
    rows, problems = parse_csv(csv_text, TABLE_HEADER)
    ref, _ = parse_csv(ref_text, TABLE_HEADER)
    if len(rows) != len(ref):
        return problems + [f"{len(rows)} rows, expected {len(ref)}"]
    try:
        excluded = json.loads(json_text)["excluded"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"JSON report unreadable: {exc!r}"]
    if len(excluded) != len(rows):
        problems.append(f"JSON report lists {len(excluded)} cells, CSV {len(rows)}")
    for i, (row, want, exc) in enumerate(zip(rows, ref, excluded)):
        problems += _same_keys(i, row, want, ("alpha", "gamma", "beta", "k", "n"))
        if row["replicates"] + exc != replicates:
            problems.append(
                f"row {i}: replicates {row['replicates']:g} + excluded {exc} != {replicates}"
            )
        for e in ("e1", "e2", "e3"):
            problems += _within(
                i, f"mean_{e}", row[f"mean_{e}"], row[f"stderr_{e}"],
                want[f"mean_{e}"], want[f"stderr_{e}"], Z_MEANS,
            )
    return problems


def check_dzeta(csv_text: str, alpha: float, zetas: list[float]) -> list[str]:
    """dzeta report: schema, one row per zeta, finite values, and the Monte
    Carlo value within `Z_DZETA` standard errors of the quadrature value."""
    rows, problems = parse_csv(csv_text, DZETA_HEADER)
    if [r["zeta"] for r in rows] != zetas or any(r["alpha"] != alpha for r in rows):
        return problems + [f"rows {[(r['zeta'], r['alpha']) for r in rows]}, "
                           f"expected zeta {zetas} at alpha {alpha}"]
    for i, row in enumerate(rows):
        if abs(row["mc"] - row["quadrature"]) > Z_DZETA * row["stderr"]:
            problems.append(
                f"row {i}: |mc - quadrature| = {abs(row['mc'] - row['quadrature']):.4g}"
                f" > {Z_DZETA} stderr ({row['stderr']:.4g})"
            )
    return problems


def max_rel_dev(csv_text: str, ref_text: str) -> float:
    """Largest relative difference between two reports' numeric fields.

    A field whose reference value is 0 contributes its absolute difference.
    Reports that differ in shape or hold a non-number give infinity.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref) or not rows or rows[0] != ref[0]:
        return math.inf
    worst = 0.0
    for row, want in zip(rows[1:], ref[1:]):
        if len(row) != len(want):
            return math.inf
        for a, b in zip(row, want):
            try:
                a, b = float(a), float(b)
            except ValueError:
                return math.inf
            worst = max(worst, abs(a - b) / abs(b) if b else abs(a - b))
    return worst
