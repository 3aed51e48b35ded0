"""Text rendered over contiguous chunks of a row range, one CPU per chunk.

`render_chunked(render, rows)` cuts range(rows) into contiguous chunks,
renders chunk 0 in this process and every other chunk in an `os.fork`ed
child, and joins the texts in row order.  The result is the text of
`render(0, rows)` whatever the chunk count, as long as `render(a, b)` is the
rows a..b-1 of that text and depends on nothing else.

The chunk count comes from the CPUs this process may run on and the row
count (at least `ROWS_PER_CHUNK` rows per chunk), so small ranges never fork.
The callers run single-threaded, which is what makes `os.fork` safe here;
a fork also starts in microseconds where a fresh interpreter would cost
more than a whole default grid.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable

ROWS_PER_CHUNK = 4096


def chunk_count(rows: int) -> int:
    """One chunk per CPU in the affinity mask, each of >= ROWS_PER_CHUNK rows."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // ROWS_PER_CHUNK))


def render_chunked(render: Callable[[int, int], str], rows: int) -> str:
    """``render(0, rows)``, with the chunks past the first rendered in children.

    An exception in any chunk is raised only after every child is reaped;
    when several chunks fail, the earliest chunk's exception is raised, which
    is the one a single `render(0, rows)` would raise.
    """
    chunks = chunk_count(rows)
    cuts = [rows * k // chunks for k in range(chunks + 1)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for k in range(1, chunks):
            children.append(_fork_chunk(render, cuts[k], cuts[k + 1]))
        outcomes = [_attempt(render, cuts[0], cuts[1])]
        while children:
            outcomes.append(_reap(*children[0]))
            children.pop(0)
    finally:
        # Only reached with children left when this process itself failed
        # (a fork refused, an interrupt): their texts are not needed.
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    texts = []
    for ok, value in outcomes:
        if not ok:
            raise value
        texts.append(value)
    return "".join(texts)


def _attempt(render: Callable[[int, int], str], start: int, stop: int) -> tuple[bool, object]:
    try:
        return True, render(start, stop)
    except Exception as exc:
        return False, exc


def _fork_chunk(render: Callable[[int, int], str], start: int, stop: int) -> tuple[int, BinaryIO]:
    """Fork a child that pickles `_attempt(render, start, stop)` into a pipe."""
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
                pipe.write(pickle.dumps(_attempt(render, start, stop)))
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
