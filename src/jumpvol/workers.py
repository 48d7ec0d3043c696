"""Map a function over items on forked processes, one per usable CPU.

`fork_map(fn, items)` is `[fn(x) for x in items]` on `worker_count`
processes: the caller and children made by `os.fork`, so `fn` and the items
reach them by inheritance and may be closures.  The items are handed out on
demand.  Before the first fork the caller puts every ticket, the index of
the first item of a run of consecutive items, into one pipe; each process
then takes the next ticket as soon as it is free, runs that run of items,
and goes on until no ticket is left.  So the items start in item order, and
a slow item holds back only the process that runs it.  A child sends its
results back pickled through a pipe and leaves by `os._exit`, so it neither
flushes the caller's buffered output nor runs its exit handlers.

A forked child starts on its parent's CPU and can stay there for tens of
milliseconds, long enough for short work to share one CPU while another
idles.  So the caller moves onto the j-th CPU of its mask just before it
forks child j, so that the child is born there, and onto the first CPU
before it starts its own share; each child also moves itself onto its
CPU.  Every move is followed at once by giving the scheduler the whole
mask back.  At one CPU, or where `fork` is missing, `fork_map` is a plain
map in the caller.

The first `fork_map` of a process, before it runs any item, sets glibc's
malloc thresholds so that freed memory is kept for reuse
(`_retain_freed_memory`); children inherit them.

This module imports no other module of the package.
"""

from __future__ import annotations

# Imported with the module: imported by the first fork_map, ctypes would add
# its import time to the run of every command.
import ctypes
import os
import pickle
from functools import cache

TICKET_BYTES = 4
# 1024 tickets of 4 bytes fill one page, the least a pipe holds and Linux's
# PIPE_BUF, so the one write that puts them all in neither blocks nor splits.
MAX_TICKETS = 1024


# mallopt's parameter numbers for the trim and mmap thresholds, and the
# values set: 64 MB, and glibc's largest mmap threshold, 32 MB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20


@cache
def _retain_freed_memory() -> None:
    """Ask glibc's malloc to keep freed memory for reuse rather than return
    it; the first call in a process does, later ones do nothing.

    The work that `fork_map` runs frees and allocates arrays of the same
    sizes over and over: blocks of about 128 KB in mc-table and rate-check,
    pieces of 128 KB of draws in dzeta.  At glibc's default thresholds
    (128 KB, raised only as mmapped blocks are freed) much of that memory
    goes back to the system and faults in again: about 16 000 page faults
    in an in-process run of table_beta02.cfg, against about one with these
    thresholds.  Where malloc is not glibc's, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


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


def _pull(fn, items: list, run: int, tickets: int) -> tuple[list, tuple | None]:
    """Run the items of each ticket read from `tickets` until none is left.

    Returns the (index, fn(item)) pairs, and (index, exception) of the item
    that raised, or None.  After a raise this process takes no further item
    and empties the pipe, so every other process stops after the ticket it
    holds.  Tickets are taken in item order, so every item below one that
    raised has been taken and runs to its end.
    """
    done = []
    # Every ticket was in the pipe before any process read, so a read of
    # TICKET_BYTES takes exactly one ticket, and an empty read means none is left.
    while ticket := os.read(tickets, TICKET_BYTES):
        start = int.from_bytes(ticket, "little")
        for i in range(start, min(start + run, len(items))):
            try:
                done.append((i, fn(items[i])))
            except Exception as exc:
                while os.read(tickets, MAX_TICKETS * TICKET_BYTES):
                    pass
                return done, (i, exc)
    return done, None


def _run_child(fn, items: list, run: int, tickets: int, cpu: int, pipe: int) -> None:
    """In a forked child: pull tickets, send what `_pull` returned, and exit.

    The exit status is 0 only once everything was sent.
    """
    status = 1
    try:
        _place(cpu)
        payload = _pull(fn, items, run, tickets)
        with os.fdopen(pipe, "wb") as out:
            out.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, pipe: int) -> tuple[list, tuple | None]:
    """What child `pid` sent through `pipe`, once it has exited.

    Raises ChildProcessError when the child exited without sending its
    results, e.g. killed by a signal.
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
    return pickle.loads(data)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], in item order, on `worker_count` processes,
    after `_retain_freed_memory`.

    Each process takes the next ticket of ceil(len(items) / MAX_TICKETS)
    items as soon as it is free.  When `fn` raises, the processes stop
    after the ticket they hold, and the exception of the lowest item that
    raised is raised again in the caller with its type: the one a plain map
    raises, whatever the number of processes.
    """
    _retain_freed_memory()
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    run = -(-len(items) // MAX_TICKETS)
    tickets, write = os.pipe()
    try:
        starts = range(0, len(items), run)
        os.write(write, b"".join(s.to_bytes(TICKET_BYTES, "little") for s in starts))
    finally:
        os.close(write)  # so that a read of the emptied pipe returns at once
    children = []  # (pid, read end of its pipe), in the order forked
    try:
        for cpu in range(1, workers):
            _place(cpu)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_child(fn, items, run, tickets, cpu, write)
            os.close(write)
            children.append((pid, read))
        _place(0)
        outcomes = [_pull(fn, items, run, tickets)]
        while children:
            outcomes.append(_receive(*children.pop(0)))
        failures = [failure for _, failure in outcomes if failure]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        results = [None] * len(items)
        for pairs, _ in outcomes:
            for i, value in pairs:
                results[i] = value
        return results
    finally:
        os.close(tickets)
        if children:  # left when the caller's pull or a receive raised
            import signal
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
