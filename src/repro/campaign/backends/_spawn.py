"""Local worker-process spawning for queue workers.

The queue backend and the fleet supervisor both launch
``python -m repro.service.worker`` as local subprocesses, so a
single-machine deployment needs no orchestration.
The helpers here keep that path uniform: the child re-uses the parent's
import roots (``src/``, test helper directories), and its stderr lands
in an anonymous temp file kept on the ``Popen`` object so a fleet that
dies at startup can still be diagnosed from the error outcome.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Sequence

__all__ = [
    "spawn_module_worker",
    "worker_stderr_tail",
    "terminate_workers",
    "close_worker_logs",
]


def spawn_module_worker(module: str, args: Sequence[str]) -> subprocess.Popen:
    """Launch ``python -m <module> <args...>`` with inherited import roots."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    stderr_log = tempfile.TemporaryFile()
    process = subprocess.Popen(
        [sys.executable, "-m", module, *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=stderr_log,
    )
    process._stderr_log = stderr_log
    return process


def worker_stderr_tail(processes: Sequence[subprocess.Popen],
                       limit: int = 2000) -> str:
    """Last stderr output of a dead spawned worker, for error messages."""
    for process in processes:
        log = getattr(process, "_stderr_log", None)
        if log is None or process.poll() is None:
            continue
        try:
            size = log.seek(0, os.SEEK_END)
            log.seek(max(0, size - limit))
            tail = log.read(limit).decode("utf-8", "replace").strip()
        except (OSError, ValueError):
            continue
        if tail:
            return (f"; worker pid {process.pid} exited "
                    f"{process.returncode} with stderr: {tail}")
    return ""


def terminate_workers(processes: Sequence[subprocess.Popen],
                      grace: float = 5.0) -> None:
    """Terminate (then kill) spawned workers and close their stderr logs."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
    close_worker_logs(processes)


def close_worker_logs(processes: Sequence[subprocess.Popen]) -> None:
    for process in processes:
        log = getattr(process, "_stderr_log", None)
        if log is not None:
            log.close()
