"""parallel.run_chunks with more than one job: input order, errors at their
position, dead workers, large volumes and early close, each under a
deadline so that a hang fails the test instead of stalling the suite."""

import contextlib
import os
import signal
import time

import pytest

from cycloperfect.parallel import run_chunks
from cycloperfect.search import ScanInvariantError


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _slower_first(i):
    # item 0 takes longest, so a worker returns item 1 before item 0
    time.sleep(0.05 * (6 - i))
    return i, time.monotonic()


def test_results_in_input_order_when_items_finish_out_of_order():
    with deadline(30):
        results = list(run_chunks(_slower_first, list(range(6)), 2))
    assert [i for i, _ in results] == list(range(6))
    finished = [t for _, t in results]
    assert finished[1] < finished[0]
    assert_no_child_left()


def _breach_at_three(i):
    if i == 3:
        raise ScanInvariantError(f"item {i}")
    return i


def test_worker_exception_is_raised_with_its_type_at_its_position():
    got = []
    with deadline(30), pytest.raises(ScanInvariantError, match="item 3"):
        for result in run_chunks(_breach_at_three, list(range(8)), 2):
            got.append(result)
    assert got == [0, 1, 2]
    assert_no_child_left()


def _exit_at_two(i):
    if i == 2:
        os._exit(1)
    return i


def test_worker_that_exits_raises_runtime_error():
    t0 = time.monotonic()
    with deadline(30), pytest.raises(RuntimeError, match="exited before returning item 2"):
        list(run_chunks(_exit_at_two, list(range(8)), 2))
    assert time.monotonic() - t0 < 10
    assert_no_child_left()


def test_many_items_and_a_large_result_complete():
    # neither function nor items are pickled: a lambda and the indices of
    # the list the workers inherited
    work = list(range(20_000))
    with deadline(120):
        assert list(run_chunks(lambda i: i * i, work, 2)) == [i * i for i in work]
        sizes = [len(r) for r in run_chunks(lambda n: b"x" * n, [1 << 20, 3 << 20, 7], 2)]
    assert sizes == [1 << 20, 3 << 20, 7]
    assert_no_child_left()


def test_closing_early_leaves_no_child():
    with deadline(30):
        results = run_chunks(_slower_first, list(range(6)), 2)
        assert next(results)[0] == 0
        results.close()
    assert_no_child_left()

