"""Tests of the benchmark itself: tiny runs, metric names and the output checks.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED[workload] + 1), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units(kind)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: nothing to measure.
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def reference(name: str) -> str:
    return (BENCH / "reference" / f"{name}.csv").read_text(encoding="utf-8")


def edit(text: str, row: int, column: str, change) -> str:
    """CSV text with one field of one data row replaced by change(old value)."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    return "\n".join(",".join(r) for r in rows) + "\n"


def drop_last_row(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def table_json(rows: int, excluded: int = 0) -> str:
    return json.dumps({"excluded": [excluded] + [0] * (rows - 1)})


def test_reference_reports_pass_their_checks():
    table = reference("table")
    assert checks.check_table(table, table_json(11), table, 500) == []
    for alpha in run.DZETA_ALPHAS:
        assert checks.check_dzeta(reference(f"dzeta_{alpha}"), alpha, list(run.DZETA_ZETAS)) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: edit(t, 3, "mean_e2", lambda v: v + 10.0),
    lambda t: edit(t, 10, "mean_e3", lambda v: v * 1.5),
    lambda t: edit(t, 0, "rms_e1", lambda v: math.nan),
    lambda t: edit(t, 5, "k", lambda v: v + 1.0),
    drop_last_row,
])
def test_corrupted_table_fails(corrupt):
    table = reference("table")
    assert checks.check_table(corrupt(table), table_json(11), table, 500)


def test_table_with_uncounted_exclusions_fails():
    table = reference("table")
    assert checks.check_table(table, table_json(11, excluded=2), table, 500)
    assert checks.check_table(table, table_json(10), table, 500)


@pytest.mark.parametrize("corrupt", [
    lambda t: edit(t, 2, "mc", lambda v: v * 1.1),
    lambda t: edit(t, 0, "quadrature", lambda v: math.inf),
    drop_last_row,
])
def test_corrupted_dzeta_report_fails(corrupt):
    assert checks.check_dzeta(corrupt(reference("dzeta_0.5")), 0.5, list(run.DZETA_ZETAS))


def test_max_rel_dev():
    table = reference("table")
    assert checks.max_rel_dev(table, table) == 0.0
    shifted = edit(table, 4, "mean_e1", lambda v: v * (1 + 1e-9))
    assert 0.5e-9 < checks.max_rel_dev(shifted, table) < 2e-9
    assert checks.max_rel_dev(drop_last_row(table), table) == math.inf
