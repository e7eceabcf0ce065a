"""The one process-pool runner shared by the sector scans, the verify
sweeps, the Mersenne sweeps and the Z[zeta_p] records.

With more than one job, run_chunks forks its workers with os.fork, and they
read each item by its index in the list they inherited: no item, nor what
it holds (a walk's prime table), is pickled.  Each worker has two pipes,
one that deals it indices and one that carries back a length-prefixed
pickled (ok, result or exception) frame per item.  A worker is dealt its
next index when it returns a result, so items go out in the caller's order
(largest first, where the caller sorted them), and results come back in
input order, so merged output never depends on the number of processes.
The program starts no thread, so forking it is safe.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct

_MASKED = {signal.SIGTERM, signal.SIGINT}
_SIZE = struct.Struct("=Q")  # an index dealt to a worker, or a frame's length


def run_chunks(fn, work, jobs):
    """Yield fn(item) for each item of work, in order.

    jobs=None uses every CPU; one job, or at most one item, runs in-process.
    A jobs below 1 raises ValueError.  An exception fn raises in a worker is
    raised again here at its item's position, and a worker that dies before
    returning its item raises RuntimeError.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if jobs <= 1 or len(work) <= 1:
        for item in work:
            yield fn(item)
        return
    workers = []  # (pid, index pipe, result pipe) of each worker, for the parent
    try:
        # cli.main's SIGTERM handler and Python's SIGINT handler raise
        # KeyboardInterrupt wherever the main thread is.  Blocked across the
        # fork, neither can reach a child before it has reset its handlers
        # (a child starts with no signal pending) nor the parent between
        # fork and noting the pid.  Everywhere else an interrupt may land in
        # the parent: it holds no lock, and the finally below kills every
        # worker, which holds none either and writes only to its own pipe.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _MASKED)
        try:
            for _ in range(min(jobs, len(work))):
                workers.append(_start_worker(fn, work, workers))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield from _results(work, workers)
    finally:
        # blocked here too, so a second interrupt cannot leave a worker unreaped
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _MASKED)
        try:
            for pid, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
            for pid, tasks, results in workers:
                os.waitpid(pid, 0)
                os.close(tasks)
                os.close(results)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _start_worker(fn, work, started) -> tuple[int, int, int]:
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        # the child keeps only its own two pipe ends
        others = [task_w, result_r, *(fd for _, *ends in started for fd in ends)]
        _serve(fn, work, task_r, result_w, others)
    os.close(task_r)
    os.close(result_w)
    return pid, task_w, result_r


def _serve(fn, work, tasks: int, results: int, others: list[int]) -> None:
    """A worker's loop: one frame for each index read, until the index pipe
    closes.  It never returns; os._exit skips the parent's exit handlers and
    flushes none of the stdio buffers it inherited."""
    code = 1
    try:
        for fd in others:
            os.close(fd)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _MASKED)
        while (index := _read(tasks, _SIZE.size)) is not None:
            try:
                frame = (True, fn(work[_SIZE.unpack(index)[0]]))
            except Exception as exc:
                frame = (False, exc)
            payload = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
            _write(results, _SIZE.pack(len(payload)))
            _write(results, payload)
        code = 0
    finally:
        os._exit(code)


def _results(work, workers):
    """Deal the indices of work to the workers and yield their results in
    input order."""
    poller = select.poll()
    held = {}  # result pipe -> (pid, index pipe, the index the worker holds)
    done = {}  # index -> frame, for results that wait on an earlier index
    pending = iter(range(len(work)))

    def deal(pid, tasks, results, index):
        try:
            os.write(tasks, _SIZE.pack(index))
        except BrokenPipeError:
            raise _lost(pid, index) from None
        held[results] = (pid, tasks, index)

    # zip stops at the last worker before it draws another index
    for (pid, tasks, results), index in zip(workers, pending):
        deal(pid, tasks, results, index)
        poller.register(results, select.POLLIN)
    for position in range(len(work)):
        while position not in done:
            for results, _ in poller.poll():
                pid, tasks, index = held.pop(results)
                header = _read(results, _SIZE.size)
                payload = None if header is None else _read(results, _SIZE.unpack(header)[0])
                if payload is None:
                    raise _lost(pid, index)
                done[index] = pickle.loads(payload)
                following = next(pending, None)
                if following is None:
                    poller.unregister(results)
                else:
                    deal(pid, tasks, results, following)
        ok, value = done.pop(position)
        if not ok:
            raise value
        yield value


def _lost(pid: int, index: int) -> RuntimeError:
    return RuntimeError(f"worker {pid} exited before returning item {index}")


def _read(fd: int, size: int) -> bytearray | None:
    """Exactly size bytes from fd, or None if it reaches end of file first."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            return None
        got += n
    return buf


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
