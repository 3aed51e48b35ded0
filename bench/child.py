"""Run one child process and measure it: wall time, exit code, max RSS.

Children are started with ``posix_spawn`` and reaped with ``os.wait4`` so
their own ``ru_maxrss`` is read, and their stdout/stderr go to files (no
pipe for the parent to drain while the clock runs).
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Environment variables that set BLAS/OpenMP thread pools; children inherit them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class ChildResult:
    wall_s: float
    maxrss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict[str, str], workdir: Path) -> ChildResult:
    """Run ``python3 <args>`` to completion (the caller waits; nothing is left running)."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return ChildResult(wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status),
                       out_path.read_bytes(), err_path.read_bytes())


def rtflab_args(argv: list[str]) -> list[str]:
    """Interpreter arguments that run the ``rtflab`` entry point with ``argv``."""
    return ["-m", "rtflab.cli", *argv]
