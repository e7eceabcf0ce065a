"""The one process-pool runner shared by the sector scans and Mersenne sweeps.

Workers fork, so they see whatever the parent published at module level
before the call (the scans' sieve context); results stream back in input
order, so merged output never depends on the number of processes.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

_MASKED = {signal.SIGTERM, signal.SIGINT}


def _pool_worker_init() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _MASKED)


def run_chunks(fn, work, jobs):
    """Yield fn(item) for each item of work, in order.

    jobs=None uses every CPU; one job, or at most one item, runs in-process.
    A jobs below 1 raises ValueError.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if jobs <= 1 or len(work) <= 1:
        for item in work:
            yield fn(item)
        return
    # cli.main's SIGTERM handler and Python's SIGINT handler raise
    # KeyboardInterrupt wherever the main thread is.  Inside the pool's own
    # code that can leave one of its locks held, so both signals stay blocked
    # while pool code runs: in the parent, in the pool's threads, and in each
    # worker until the initializer has reset them.  The parent lets them
    # through only while a result is with the caller.  However the caller
    # stops, the pool is shut down, not terminated: pending tasks are
    # cancelled and each worker exits after the tasks it holds, so none dies
    # holding a queue lock that shutdown needs (multiprocessing.Pool's
    # terminate() hung on a lock a killed worker held).
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _MASKED)
    try:
        pool = ProcessPoolExecutor(
            jobs, mp_context=get_context("fork"), initializer=_pool_worker_init
        )
        try:
            for result in pool.map(fn, work):
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    yield result
                finally:
                    signal.pthread_sigmask(signal.SIG_BLOCK, _MASKED)
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
