"""Work mapped over contiguous chunks of a range of items, one CPU per chunk.

`map_chunked(work, items, per_chunk)` cuts range(items) into contiguous
chunks, runs `work(start, stop)` for chunk 0 in this process and for every
other chunk in an `os.fork`ed child, and returns the results in chunk order.
Concatenating them gives the result of `work(0, items)` whatever the chunk
count, as long as `work(a, b)` is the items a..b-1 of that result and
depends on nothing else.  `rtflab measure` joins the texts of its grid rows
this way, and `rtflab check` the result lists of its check groups.

The chunk count comes from the CPUs this process may run on and the item
count (at least `per_chunk` items per chunk), so small ranges never fork.
A fork also starts in microseconds where a fresh interpreter would cost
more than a whole default grid.  `os.fork` is safe here because no thread
of the parent runs Python code or holds a lock the child needs: the callers
are single-threaded, and the only other thread a parent that has imported
numpy holds is an idle OpenBLAS worker, whose pool OpenBLAS shuts down
around the fork (a `pthread_atfork` handler) and restarts on demand.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable, TypeVar

T = TypeVar("T")


def chunk_count(items: int, per_chunk: int) -> int:
    """One chunk per CPU in the affinity mask, each of >= per_chunk items."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items // per_chunk))


def map_chunked(work: Callable[[int, int], T], items: int, per_chunk: int) -> list[T]:
    """``work(start, stop)`` for each chunk, the chunks past the first in children.

    An exception in any chunk is raised only after every child is reaped;
    when several chunks fail, the earliest chunk's exception is raised, which
    is the one a single `work(0, items)` would raise.  A child that dies
    without reporting (a signal, `os._exit`) raises `ChildProcessError`.
    """
    chunks = chunk_count(items, per_chunk)
    cuts = [items * k // chunks for k in range(chunks + 1)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(1, chunks):
            children.append(_fork_chunk(work, cuts[k], cuts[k + 1]))
        outcomes = [_attempt(work, cuts[0], cuts[1])]
        while children:
            outcomes.append(_reap(*children[0]))
            children.pop(0)
    finally:
        # Only reached with children left when this process itself failed
        # (a fork refused, an interrupt): their results are not needed.
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


def _attempt(work: Callable[[int, int], T], start: int, stop: int) -> tuple[bool, object]:
    try:
        return True, work(start, stop)
    except Exception as exc:
        return False, exc


def _fork_chunk(work: Callable[[int, int], T], start: int, stop: int) -> tuple[int, BinaryIO]:
    """Fork a child that pickles `_attempt(work, start, stop)` into a pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child leaves through os._exit only: it must not flush the
        # parent's buffered stdout a second time or run its atexit hooks.
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_attempt(work, start, stop)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid: int, pipe: BinaryIO) -> tuple[bool, object]:
    """Read one child's pickled outcome to EOF, then wait for it."""
    with pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        return False, ChildProcessError(f"chunk worker {pid} exited with status {code}")
    return pickle.loads(payload)
