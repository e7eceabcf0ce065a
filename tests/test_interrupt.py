"""SIGTERM and SIGINT during pooled work: a CLI command exits 130 with one
stderr line, no traceback and no process of its session left behind, and the
runner raises the interrupt in the parent and reaps every worker."""

import os
import select
import signal
import subprocess
import sys
import time
import traceback

import pytest

import cycloperfect
from cycloperfect.cli import EXIT_INTERRUPTED
from cycloperfect.parallel import run_chunks

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cycloperfect.__file__)))

COMMANDS = {
    "search-even": [
        "search-even", "--ring", "gaussian", "--max-norm", "200000",
        "--jobs", "2", "--progress",
    ],
    "mersenne": [
        "mersenne", "--ring", "eisenstein", "--max-k", "1500",
        "--jobs", "2", "--progress",
    ],
}


def _start(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "cycloperfect.cli", *argv],
        # unbuffered, so reading the first line takes no more than that line
        # from the pipe before communicate() reads the rest
        bufsize=0,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
        # a shell that started the tests in the background may have left
        # SIGINT ignored, and Python then installs no handler for it
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )


def _read_line(stream, deadline):
    if not select.select([stream], [], [], max(deadline - time.monotonic(), 0))[0]:
        raise TimeoutError("no stderr line before the deadline")
    return stream.readline().decode()


def _session_alive(sid):
    """Processes of session sid that are not zombies."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, session = fields[0], int(fields[3])
        if session == sid and state not in "ZX":
            alive.append(int(entry))
    return alive


@pytest.mark.parametrize("target", ["parent-sigterm", "group-sigint"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_interrupt_exits_130_with_one_line(command, target):
    proc = _start(COMMANDS[command])
    deadline = time.monotonic() + 60
    try:
        first = _read_line(proc.stderr, deadline)
        assert first.startswith("scanned "), first
        if target == "parent-sigterm":
            os.kill(proc.pid, signal.SIGTERM)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, rest = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        alive = _session_alive(proc.pid)
    finally:
        # a failed run must not leave its pool behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    rest = rest.decode()
    assert proc.returncode == EXIT_INTERRUPTED, rest
    assert "Traceback" not in rest
    tail = [line for line in rest.splitlines() if not line.startswith("scanned ")]
    assert tail == ["interrupted"], rest
    assert alive == []


def _signal_parent_at_five(i):
    # late enough that the parent has taken results and waits for more
    if i == 5:
        os.kill(os.getppid(), signal.SIGTERM)
    time.sleep(0.05)
    return i


def test_interrupt_surfaces_between_results():
    # the KeyboardInterrupt must not be raised inside multiprocessing or
    # threading code, where it can leave a lock held; the runner uses neither
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt) as info:
            for _ in run_chunks(_signal_parent_at_five, list(range(40)), 2):
                pass
    finally:
        signal.signal(signal.SIGTERM, previous)
    files = [frame.filename for frame in traceback.extract_tb(info.tb)]
    assert not [
        f for f in files
        if f"{os.sep}multiprocessing{os.sep}" in f or f.endswith("threading.py")
    ], files
    # every worker was reaped: the test process has no child left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not signal.pthread_sigmask(signal.SIG_BLOCK, ()) & {
        signal.SIGTERM,
        signal.SIGINT,
    }
