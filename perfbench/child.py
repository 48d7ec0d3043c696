"""Run one repetition of a benchmark workload in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON is a JSON file with the keys
  config  experiment config to load during set-up, or null
  argvs   jumpvol CLI argument lists, run in order through jumpvol.cli.cli
  trace   true to wrap each layer's public functions and record spans
  result  path of the JSON result this process writes

Set-up is the import of jumpvol.cli plus loading the config.  Solve is the
time from CLI entry until the command returns, summed over `argvs`; the
command has written its report by then.  jumpvol is imported from PYTHONPATH,
which the benchmark points at the checkout's src/.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {}
    t0 = perf_counter()
    if spec["trace"]:
        import scipy.integrate  # noqa: F401  (timed on its own: most of the import)

        result["import_scipy_integrate_s"] = perf_counter() - t0
    import jumpvol.cli

    result["import_s"] = perf_counter() - t0
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = perf_counter()
    if spec["config"]:
        jumpvol.harness.load_config(spec["config"])
    result["setup_s"] = result["import_s"] + perf_counter() - t1

    solve = 0.0
    codes = []
    for argv in spec["argvs"]:
        t2 = perf_counter()
        codes.append(jumpvol.cli.cli(argv))
        solve += perf_counter() - t2
    result["solve_s"] = solve
    result["exit_codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
