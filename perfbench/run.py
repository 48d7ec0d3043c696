"""jumpvol benchmark: the mc-table and dzeta workloads, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {table,dzeta} --seed N \
        --seconds S --trace {0,1} [--tiny]

Every repetition is a fresh interpreter (child.py) that imports jumpvol from
the checkout's src/ and calls jumpvol.cli on inputs made from --seed, with
the program's default threading: no --threads and no JUMPVOL_THREADS.

--trace 0 repeats the workload as often as fits in --seconds, and at least
MIN_REPS times.  Before each repetition it times a fixed calibration that
uses no jumpvol code, and it scales the repetition's times to a host that
runs the calibration in CALIBRATION_REF_S.  It reports solve_s and
work_per_s as the mean over the repetitions and the other end-to-end
metrics as medians.
--trace 1 runs the workload once untraced, once with every public function of
the layers wrapped (tracer.py), once pinned to one core, once at the default
seed to compare with the committed reference, and then the layer
microbenchmarks (micro.py); it reports the per-layer metrics.
--tiny shrinks every workload for the benchmark's own tests.

Every repetition's output is checked (checks.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the machine, each repetition, the check
verdicts and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_integrate_s": "s",
    "harness.load_config_s": "s",
    "harness.run_mc.self_s": "s",
    "harness.emit_report_s": "s",
    "harness.parallel_gain": "ratio",
    "levy.simulate_path.calls": "count",
    "levy.simulate_path.busy_s": "s",
    "levy.stable_us.n700": "us",
    "levy.stable_us.n6400": "us",
    "levy.tempered_us.n700": "us",
    "levy.tempered_us.n6400": "us",
    "kernels.evals_per_increment": "ratio",
    "kernels.phi_us.n700": "us",
    "kernels.phi_us.n6400": "us",
    "kernels.psi_us.n700": "us",
    "kernels.psi_us.n6400": "us",
    "kernels.c_tilde_s": "s",
    "estimators.tqv.calls_per_path": "ratio",
    "estimators.tqv.busy_s": "s",
    "estimators.tqv_us.n700": "us",
    "estimators.tqv_us.n6400": "us",
    "estimators.triple_us.n700": "us",
    "estimators.triple_us.n6400": "us",
    "stable.d_zeta_mc.busy_s": "s",
    "stable.d_zeta_quadrature.busy_s": "s",
    "stable.stable_density.calls": "count",
    "trace.overhead_frac": "ratio",
    "check.max_rel_dev": "ratio",
}

WORKLOADS = ("table", "dzeta")
TABLE_CONFIG = "table_beta02.cfg"
# The seeds the table config and the dzeta CLI use by default; the committed
# reference reports were made at these seeds.
DEFAULT_SEED = {"table": 42, "dzeta": 0}
DZETA_ALPHAS = (0.5, 1.5)
DZETA_ZETAS = (0.1, 0.01, 0.001)
TINY_REPLICATES = "20"
TINY_DRAWS = "20000"

MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
# End-to-end times are given for a host that runs host_calibration_s() in
# this many seconds; the 2-vCPU Xeon guest the benchmark was written on took
# 0.16-0.4 s, depending on its speed at the moment.
CALIBRATION_REF_S = 0.2
# Every child is killed at this many seconds after the start, so that the
# benchmark ends within its 180-second limit even if the program hangs.
BUDGET_S = 170.0


@dataclass
class Job:
    """One workload at one seed: the CLI calls to make and how to check them."""

    seed: int
    dir: Path
    config: str | None
    argvs: list[list[str]]
    ops: int
    outputs: list[str]
    reference: list[str]
    check: Callable[[], tuple[list[str], int]]


@dataclass
class Rep:
    result: dict
    ops: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    # CALIBRATION_REF_S over the calibration time taken just before the run.
    scale: float = 1.0


def with_globals(text: str, values: dict) -> str:
    """Config text with global keys set: appended after the file's own globals."""
    lines = text.splitlines()
    first = next(
        (i for i, line in enumerate(lines) if line.split("#", 1)[0].strip().startswith("[")),
        len(lines),
    )
    extra = [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines[:first] + extra + lines[first:]) + "\n"


def config_shape(text: str) -> tuple[dict, int]:
    """The global key-value pairs of a config (last one wins) and its cell count."""
    values, cells = {}, 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line == "[cell]":
            cells += 1
        elif "=" in line and cells == 0:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values, cells


def prepare(workload: str, seed: int, parent: Path, tiny: bool) -> Job:
    jobdir = parent / f"{workload}-seed{seed}"
    jobdir.mkdir(parents=True, exist_ok=True)
    suffix = "_tiny" if tiny else ""

    def ref(name):
        return (HERE / "reference" / f"{name}{suffix}.csv").read_text(encoding="utf-8")

    def out(name):
        return (jobdir / name).read_text(encoding="utf-8")

    if workload == "dzeta":
        outputs = [f"dzeta_{a}.csv" for a in DZETA_ALPHAS]
        argvs = [
            ["dzeta", "--alpha", repr(a), "--zeta", ",".join(map(repr, DZETA_ZETAS)),
             "--seed", str(seed), "--out", name] + (["--draws", TINY_DRAWS] if tiny else [])
            for a, name in zip(DZETA_ALPHAS, outputs)
        ]

        def check():
            problems = []
            for a, name in zip(DZETA_ALPHAS, outputs):
                problems += checks.check_dzeta(out(name), a, list(DZETA_ZETAS))
            return problems, 0

        return Job(seed, jobdir, None, argvs,
                   len(DZETA_ALPHAS) * len(DZETA_ZETAS), outputs,
                   [ref(f"dzeta_{a}") for a in DZETA_ALPHAS], check)

    # Ask for the JSON report too: it carries the excluded replicates.
    overrides = {"json": "table.json"}
    if tiny:
        overrides["replicates"] = TINY_REPLICATES
    text = with_globals((ROOT / "configs" / TABLE_CONFIG).read_text(encoding="utf-8"), overrides)
    (jobdir / "bench.cfg").write_text(text, encoding="utf-8")
    values, cells = config_shape(text)
    replicates = int(values["replicates"])

    def check():
        problems = checks.check_table(out("table.csv"), out("table.json"), ref("table"), replicates)
        return problems, sum(json.loads(out("table.json"))["excluded"])

    return Job(seed, jobdir, "bench.cfg",
               [["mc-table", "--config", "bench.cfg", "--seed", str(seed), "--out", "table.csv"]],
               cells * replicates, ["table.csv"], [ref("table")], check)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("JUMPVOL_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(script: str, args: list[str], cwd: Path, deadline: float) -> str | None:
    """Run a perfbench script in a fresh interpreter; None on success, else why not."""
    with open(cwd / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        timed_out = False
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if timed_out:
        return f"{script} killed at the time budget"
    if proc.returncode != 0:
        tail = (cwd / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return f"{script} exited with {proc.returncode}: {tail}"
    return None


def run_child(job: Job, argvs: list, trace: bool, deadline: float) -> dict:
    spec = {"config": job.config, "argvs": argvs, "trace": trace, "result": "result.json"}
    (job.dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (job.dir / "result.json").unlink(missing_ok=True)
    error = run_python("child.py", ["spec.json"], job.dir, deadline)
    if error:
        return {"error": error}
    return json.loads((job.dir / "result.json").read_text(encoding="utf-8"))


def run_rep(job: Job, deadline: float, trace: bool = False) -> Rep:
    """One checked repetition; on any problem all of its operations count as failed."""
    rep = Rep(run_child(job, job.argvs, trace, deadline), job.ops)
    if "error" in rep.result:
        rep.problems = [rep.result["error"]]
    elif any(code != 0 for code in rep.result["exit_codes"]):
        rep.problems = [f"jumpvol exit codes {rep.result['exit_codes']}"]
    else:
        try:
            rep.problems, rep.failed = job.check()
        except (OSError, ValueError, KeyError) as exc:
            rep.problems = [f"output unreadable: {exc!r}"]
    if rep.problems:
        rep.failed = rep.ops
    return rep


def report_rep(label: str, rep: Rep) -> None:
    r = rep.result
    if "solve_s" in r:
        print(f"  {label}: setup {r['setup_s']:.4f} s  solve {r['solve_s']:.4f} s  "
              f"host scale {rep.scale:.4f}  "
              f"rss {r['peak_rss_mb']:.1f} MB  failed {rep.failed}/{rep.ops}  "
              f"check {'ok' if not rep.problems else 'FAILED'}")
    for problem in rep.problems:
        print(f"    check: {problem}")


def measure(job: Job, seconds: int, deadline: float) -> tuple[dict, list[Rep]]:
    """End-to-end metrics over fresh-process repetitions.

    The host's speed drifts by up to 1.5x over tens of seconds, so whole
    runs are fast or slow.  Each repetition's times are therefore scaled by
    a calibration taken just before it, which moves with the host and not
    with the program.  Repetition times also have two modes, and a median
    jumps between them with the share of the run spent in each; the mean
    moves smoothly with that share, so solve_s and work_per_s use the mean.
    """
    run_child(job, [], False, deadline)  # warm-up: byte-compile and fill the file cache
    reps: list[Rep] = []
    start = perf_counter()
    # Start another repetition while it is expected to end within --seconds.
    while len(reps) < MIN_REPS or (perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
        if time.monotonic() >= deadline:
            break
        scale = CALIBRATION_REF_S / host_calibration_s()
        reps.append(run_rep(job, deadline))
        reps[-1].scale = scale
        report_rep(f"rep {len(reps)}", reps[-1])
    print(f"  {len(reps)} repetitions in {perf_counter() - start:.1f} s")
    timed = [rep for rep in reps if "solve_s" in rep.result]
    if not timed:
        raise SystemExit("error: no repetition produced a timing")
    setups = [rep.result["setup_s"] * rep.scale for rep in timed]
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
        scale = CALIBRATION_REF_S / host_calibration_s()
        probe = run_child(job, [], False, deadline)
        if "error" in probe:
            raise SystemExit(f"error: set-up probe failed: {probe['error']}")
        setups.append(probe["setup_s"] * scale)
    raw_solve = mean(rep.result["solve_s"] for rep in timed)
    solve = mean(rep.result["solve_s"] * rep.scale for rep in timed)
    print(f"  mean solve {raw_solve:.4f} s as measured, {solve:.4f} s at the reference host speed")
    attempted = sum(rep.ops for rep in reps)
    return {
        "setup_s": median(setups),
        "solve_s": solve,
        "work_per_s": job.ops / solve,
        "peak_rss_mb": median(rep.result["peak_rss_mb"] for rep in timed),
        "ok_frac": 1.0 - sum(rep.failed for rep in reps) / attempted,
    }, reps


@contextmanager
def one_core():
    """Pin this process, and so the children it starts, to a single CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def trace_run(job: Job, ref_job: Job, tiny: bool, deadline: float) -> tuple[dict, list[Rep]]:
    """Per-layer metrics from one traced run and its untraced, pinned and reference runs."""
    run_child(job, [], False, deadline)  # warm-up, as in measure()
    runs = {}
    runs["untraced"] = run_rep(job, deadline)
    runs["traced"] = run_rep(job, deadline, trace=True)
    with one_core():
        runs["one core"] = run_rep(job, deadline)
    runs["default seed"] = runs["untraced"] if ref_job.seed == job.seed else run_rep(ref_job, deadline)
    for label, rep in runs.items():
        report_rep(label, rep)
    if any("solve_s" not in rep.result for rep in runs.values()):
        raise SystemExit("error: a traced-mode run produced no timing")

    micro_error = run_python("micro.py", ["micro.json"] + (["--tiny"] if tiny else []), job.dir, deadline)
    if micro_error:
        raise SystemExit(f"error: {micro_error}")
    micro = json.loads((job.dir / "micro.json").read_text(encoding="utf-8"))

    dev = 0.0
    for name, ref_text in zip(ref_job.outputs, ref_job.reference):
        try:
            text = (ref_job.dir / name).read_text(encoding="utf-8")
        except OSError:
            text = ""
        dev = max(dev, checks.max_rel_dev(text, ref_text))
    if not math.isfinite(dev):
        dev = 1.0  # a missing or malformed report counts as wholly different

    traced, base = runs["traced"].result, runs["untraced"].result
    spans = traced["trace"]
    print("  trace (calls, busy s, self s, items):")
    for name, rec in sorted(spans.items()):
        print(f"    {name}: {rec['calls']} {rec['busy_s']:.4f} {rec['self_s']:.4f} {rec['items']}")

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    paths = get("levy.simulate_path", "calls")
    increments = get("levy.simulate_path", "items")
    loads = get("harness.load_config", "calls")
    metrics = {
        "cli.import_s": traced["import_s"],
        "cli.import_scipy_integrate_s": traced["import_scipy_integrate_s"],
        "harness.load_config_s": get("harness.load_config", "busy_s") / loads if loads else 0.0,
        "harness.run_mc.self_s": get("harness.run_mc", "self_s"),
        "harness.emit_report_s": get("harness.emit_report", "busy_s"),
        "harness.parallel_gain": runs["one core"].result["solve_s"] / base["solve_s"],
        "levy.simulate_path.calls": paths,
        "levy.simulate_path.busy_s": get("levy.simulate_path", "busy_s"),
        "kernels.evals_per_increment": (
            (get("kernels.phi", "items") + get("kernels.psi", "items")) / increments
            if increments else 0.0
        ),
        "kernels.c_tilde_s": get("kernels.c_tilde", "busy_s"),
        "estimators.tqv.calls_per_path": get("estimators.tqv", "calls") / paths if paths else 0.0,
        "estimators.tqv.busy_s": get("estimators.tqv", "busy_s"),
        "stable.d_zeta_mc.busy_s": get("stable.d_zeta_mc", "busy_s"),
        "stable.d_zeta_quadrature.busy_s": get("stable.d_zeta_quadrature", "busy_s"),
        "stable.stable_density.calls": get("stable.stable_density", "calls"),
        "trace.overhead_frac": traced["solve_s"] / base["solve_s"] - 1.0,
        "check.max_rel_dev": dev,
    }
    metrics.update(micro)
    reps = [runs["untraced"], runs["traced"], runs["one core"]]
    if runs["default seed"] is not runs["untraced"]:
        reps.append(runs["default seed"])
    return {name: metrics[name] for name in PER_LAYER}, reps


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref:"):
        return head.strip() if head else None
    ref = head.split(":", 1)[1].strip()
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


_CALIBRATION_ARRAY = np.random.default_rng(0).standard_normal(1_000_000)


def host_calibration_s() -> float:
    """Time of fixed work that uses no jumpvol code: a pure-Python loop, as
    in import and per-path overhead, and numpy passes over a million
    numbers, as in the array work.  It shows the host's speed at the moment."""
    t = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    x = _CALIBRATION_ARRAY
    for _ in range(10):
        y = np.abs(x) ** 1.5
        (y[y < 1.0] ** 2).sum()
    return perf_counter() - t


def machine_facts() -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / key) for key in ("level", "type", "size"))
        if level and kind and size:
            name = f"L{level.strip()}" + {"Data": "d", "Instruction": "i"}.get(kind.strip(), "")
            caches[name] = size.strip()

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "calibration_s": host_calibration_s(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    needed = [ROOT / "src" / "jumpvol" / "cli.py", ROOT / "configs" / TABLE_CONFIG]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not the root of a jumpvol checkout, missing {missing}", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_facts()))
    rundir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        job = prepare(args.workload, args.seed, rundir, args.tiny)
        print(f"workload {args.workload}, seed {args.seed}, {job.ops} operations per run, "
              f"trace {args.trace}")
        if args.trace:
            ref_job = prepare(args.workload, DEFAULT_SEED[args.workload], rundir, args.tiny)
            metrics, reps = trace_run(job, ref_job, args.tiny, deadline)
            units = PER_LAYER
        else:
            metrics, reps = measure(job, args.seconds, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    problems = [p for rep in reps for p in rep.problems]
    print(f"check: {'ok' if not problems else 'FAILED'} "
          f"({len(reps) - sum(bool(rep.problems) for rep in reps)}/{len(reps)} runs passed)")
    print("calibration_s at end:", host_calibration_s())
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep.ops for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
