"""Layer microbenchmarks: microseconds per path for each layer's public functions.

Usage: python3 micro.py RESULT_JSON [--tiny]

Each case calls public jumpvol functions directly on one path of n = 700 or
n = 6400 increments, after a warm-up, and reports the median over several
timed batches of the time per call.  A case whose public name or signature
no longer exists reports 0 and says so on stderr instead of failing the run.
"""

from __future__ import annotations

import itertools
import json
import sys
from statistics import median
from time import perf_counter

SIZES = (700, 6400)
ALPHA, GAMMA, M = 1.5, 1.0, 4.0


def _cases(jv, n: int):
    """(metric name, builder) pairs; each builder returns the call to time."""

    def sampler(kind, alpha):
        model = jv.ModelSpec(
            sigma=1.0, gamma=GAMMA, jump_law=jv.JumpLaw(kind, alpha=alpha)
        )
        seeds = itertools.count()
        return lambda: jv.simulate_path(model, n, next(seeds))

    def path_and_config():
        model = jv.ModelSpec(
            sigma=1.0, gamma=GAMMA, jump_law=jv.JumpLaw("stable", alpha=ALPHA)
        )
        cfg = jv.EstimatorConfig(beta=0.2, k=2.0)
        return jv.simulate_path(model, n, 1), cfg

    def kernel(name):
        from jumpvol import kernels

        path, cfg = path_and_config()
        x = path.increments / cfg.threshold(n)
        if name == "phi":
            return lambda: kernels.phi(x)
        return lambda: kernels.psi(x, M)

    def tqv():
        path, cfg = path_and_config()
        return lambda: jv.tqv(path, cfg)

    def triple():
        # E1, E2 and E3 of one path, as the Monte Carlo harness computes them.
        path, cfg = path_and_config()

        def run():
            jv.tqv(path, cfg)
            jv.corrected_tqv(path, cfg, ALPHA, GAMMA, 1.0)
            jv.cancelled_kernel_tqv(path, cfg, ALPHA, M, 1.0)

        return run

    return [
        (f"levy.stable_us.n{n}", lambda: sampler("stable", ALPHA)),
        (f"levy.tempered_us.n{n}", lambda: sampler("tempered", 0.9)),
        (f"kernels.phi_us.n{n}", lambda: kernel("phi")),
        (f"kernels.psi_us.n{n}", lambda: kernel("psi")),
        (f"estimators.tqv_us.n{n}", tqv),
        (f"estimators.triple_us.n{n}", triple),
    ]


def per_call_us(fn, batch_s: float, batches: int) -> float:
    """Median over timed batches of microseconds per call, after a warm-up."""
    start = perf_counter()
    calls = 0
    while calls < 3 or perf_counter() - start < batch_s:
        fn()
        calls += 1
    per_batch = max(1, round(calls * batch_s / (perf_counter() - start)))
    samples = []
    for _ in range(batches):
        t = perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((perf_counter() - t) / per_batch * 1e6)
    return median(samples)


def main(result_path: str, tiny: bool) -> None:
    import jumpvol as jv

    batch_s, batches = (0.002, 3) if tiny else (0.03, 7)
    out = {}
    for n in SIZES:
        for name, build in _cases(jv, n):
            try:
                out[name] = per_call_us(build(), batch_s, batches)
            except (AttributeError, TypeError, ImportError) as exc:
                print(f"micro: {name} not measured: {exc!r}", file=sys.stderr)
                out[name] = 0.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], "--tiny" in sys.argv[2:])
