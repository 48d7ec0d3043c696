"""Span tracer that wraps the public functions of jumpvol's layers from outside.

`Tracer.install()` replaces every public function defined in the layer
modules with a wrapper that records one span per call: an id, the id of its
parent span, the function's name, its start and end, and for a few functions
the amount of work the call was given (see `ITEMS`).  The replacement is made
in every jumpvol namespace that binds the function, so calls through
`from .levy import simulate_path` are traced too.  The program itself is not
changed, and a public name that a later version removes is simply absent
from the summary (zero calls).

A span's parent is the innermost open span on the same thread.  A span that
opens on a worker thread with nothing open there is parented to the innermost
open span of the main thread, which is the span that dispatched the work
(`run_mc` waiting on its thread pool).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "levy", "kernels", "estimators", "stable")


def _array_size(args, kwargs) -> int:
    # Kernel evaluations on increment arrays; scalar calls come from
    # quadrature of kernel moments and are not per-increment work.
    x = args[0] if args else kwargs.get("x")
    return int(np.size(x)) if np.ndim(x) > 0 else 0


def _path_length(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("n", 0))


ITEMS = {
    "kernels.phi": _array_size,
    "kernels.psi": _array_size,
    "levy.simulate_path": _path_length,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, fn):
        items = ITEMS.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            work = items(args, kwargs) if items else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, work))

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions in every loaded jumpvol namespace."""
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "jumpvol" or key.startswith("jumpvol.")
        ]
        for layer in LAYERS:
            mod = sys.modules.get(f"jumpvol.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)

    def summary(self) -> dict:
        """Per function: calls, busy seconds, self seconds and work items.

        Self time is a span's duration minus the part of it that the union of
        its child spans covers, so time a parent spends waiting on children
        running in parallel on other threads is not counted as its own.
        """
        children = defaultdict(list)
        for _sid, parent, _name, start, end, _work in self.spans:
            children[parent].append((start, end))
        out: dict[str, dict] = {}
        for sid, _parent, name, start, end, work in self.spans:
            rec = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0}
            )
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
            rec["items"] += work
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
