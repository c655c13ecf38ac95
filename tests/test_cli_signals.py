"""The long-running commands stop cleanly on SIGINT (and ``serve`` on
SIGTERM), also when started the way ``cmd &`` starts a process from a
non-interactive shell: with SIGINT ignored."""

import os
import select
import signal
import subprocess
import sys
import time

import pytest

#: each command prints one line to stderr once its signal handlers are in
COMMANDS = {
    "serve": ["repro.service", "serve", "--port", "0"],
    "worker": ["repro.service", "worker"],
    "fleet": ["repro.fleet", "--min-workers", "0", "--max-workers", "1"],
}


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _wait_for_line(stream, timeout):
    """The first line on ``stream``, or None after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
            return None
        chunk = os.read(stream.fileno(), 1)
        if not chunk:
            return line.decode() or None
        line += chunk
    return line.decode()


@pytest.mark.parametrize("command,signum", [
    ("serve", signal.SIGINT),
    ("serve", signal.SIGTERM),
    ("worker", signal.SIGINT),
    ("fleet", signal.SIGINT),
])
def test_command_started_with_sigint_ignored_exits_on_signal(
        tmp_path, command, signum):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    module, *args = COMMANDS[command]
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *args, "--data", str(tmp_path / "svc")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=_ignore_sigint)
    try:
        ready = _wait_for_line(proc.stderr, timeout=60.0)
        assert ready, f"{command} printed nothing before exiting"
        proc.send_signal(signum)
        assert proc.wait(timeout=5.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
