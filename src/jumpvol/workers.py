"""Map a function over items on forked processes, one per usable CPU.

`fork_map(fn, items)` is `[fn(x) for x in items]`.  Item k belongs to share
k % workers, where workers is one per CPU this process may use and never
more than the items.  The caller computes share 0 itself; shares 1, 2, ...
run in children made by `os.fork`, so `fn` and the items reach them by
inheritance and may be closures.  A child sends its results back pickled
through a pipe and leaves by `os._exit`, so it neither flushes the
caller's buffered output nor runs its exit handlers.

A forked child starts on its parent's CPU and can stay there for tens of
milliseconds, long enough for short work to share one CPU while another
idles.  So each process, the caller included, first moves itself onto a
CPU of its own, share j onto the j-th CPU of its mask, and then gives the
scheduler the whole mask back.  At one CPU, or where `fork` is missing,
`fork_map` is a plain map in the caller.

This module imports no other module of the package.
"""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def worker_count(items: int) -> int:
    """Processes, the caller included, that `fork_map` spreads `items` items over."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), items))


def _place(share: int) -> None:
    """Move this process onto CPU `share` of its mask, then restore the mask."""
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(mask)[share % len(mask)]})
        os.sched_setaffinity(0, mask)
    except (AttributeError, OSError):  # placement only speeds things up
        pass


def _run_share(fn, items: list, share: int, pipe: int) -> None:
    """In a forked child: send [fn(x) for x in items], or what it raised, and exit.

    The exit status is 0 only once everything was sent.
    """
    status = 1
    try:
        _place(share)
        try:
            payload = (True, [fn(x) for x in items])
        except Exception as exc:
            payload = (False, exc)
        with os.fdopen(pipe, "wb") as out:
            out.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, pipe: int) -> list:
    """The results that child `pid` sent through `pipe`, once it has exited.

    Raises what the child's `fn` raised, and ChildProcessError when the child
    exited without sending its results, e.g. killed by a signal.
    """
    try:
        with os.fdopen(pipe, "rb") as src:
            data = src.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        if code < 0:
            # Imported on the error paths only: at the top it would add
            # about 0.4 ms to the start of every command.
            import signal

            how = f"was killed by signal {-code} ({signal.Signals(-code).name})"
        else:
            how = f"exited with status {code}"
        raise ChildProcessError(
            f"worker process {pid} {how} before sending its results"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], in item order, on `worker_count` processes.

    An exception raised by `fn` is raised again in the caller with its type:
    the caller's own first, then each child's in share order.  When the
    caller raises, the children are killed.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    _place(0)
    children = []  # (pid, read end of its pipe), share 1 first
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_share(fn, items[share::workers], share, write)
            os.close(write)
            children.append((pid, read))
        results = [None] * len(items)
        results[::workers] = [fn(x) for x in items[::workers]]
        for share in range(1, workers):
            results[share::workers] = _receive(*children.pop(0))
        return results
    finally:
        if children:  # left when the caller's share or a receive raised
            import signal
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
