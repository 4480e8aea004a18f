"""Tests for the worker-process module: task pool and worker handle."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.exec import Worker, WorkerLost, default_mp_context, map_tasks

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# -- task functions (module level, so ``spawn`` could pickle them too) -----


def _sleep_then_echo(task):
    """Task 0 sleeps, so it finishes after task 1."""
    time.sleep(0.8 if task == 0 else 0.0)
    return task * 10


def _crash_once(task):
    """Dies hard on the first attempt (no sentinel file yet), then works."""
    sentinel = task
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return "recovered"


def _crash_always(task):
    os._exit(9)


def _echo_loop(conn):
    """A step-by-step worker: echo every message until told to stop."""
    while True:
        message = conn.recv()
        if message == ("stop",):
            break
        conn.send(message)
    conn.close()


class TestMapTasks:
    def test_results_in_task_order_when_first_finishes_last(self):
        finished = []
        outcomes = map_tasks(
            _sleep_then_echo, [0, 1], jobs=2,
            on_outcome=lambda index, outcome, retrying:
                finished.append(index))
        assert finished == [1, 0]
        assert [o.result for o in outcomes] == [0, 10]
        assert all(o.error is None and o.attempts == 1 for o in outcomes)

    def test_crashed_task_is_retried(self, tmp_path):
        outcomes = map_tasks(_crash_once, [str(tmp_path / "sentinel")],
                             jobs=1, max_retries=1)
        assert outcomes[0].result == "recovered"
        assert outcomes[0].attempts == 2
        assert outcomes[0].error is None

    def test_exhausted_retries_report_failure(self):
        retries = []
        started = time.monotonic()
        outcomes = map_tasks(
            _crash_always, [None, None], jobs=2, max_retries=1,
            on_outcome=lambda index, outcome, retrying:
                retries.append(retrying))
        assert time.monotonic() - started < 30
        for outcome in outcomes:
            assert outcome.attempts == 2
            assert outcome.result is None
            assert "exit code 9" in outcome.error
        assert sorted(retries) == [False, False, True, True]

    def test_failed_verdict_is_retried(self):
        outcomes = map_tasks(
            _sleep_then_echo, [1], max_retries=2,
            failed=lambda result: f"bad result {result}")
        assert outcomes[0].attempts == 3
        assert outcomes[0].error == "bad result 10"
        assert outcomes[0].result == 10


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestWorkerHandle:
    def test_default_context_prefers_fork(self):
        assert default_mp_context().get_start_method() == "fork"

    def test_round_trip_and_stop(self):
        worker = Worker(_echo_loop)
        worker.send(("ping", 1))
        assert worker.recv(timeout=10) == ("ping", 1)
        worker.stop(timeout=5)
        assert worker.process.exitcode == 0

    def test_deadline_recv_on_stopped_child_then_stop_reaps(self):
        worker = Worker(_echo_loop)
        os.kill(worker.process.pid, signal.SIGSTOP)
        worker.send(("ping", 2))
        started = time.monotonic()
        with pytest.raises(WorkerLost, match="wedged"):
            worker.recv(timeout=0.5)
        assert time.monotonic() - started < 2.0
        worker.stop(timeout=0.5)
        assert not worker.process.is_alive()
        assert worker.process.exitcode is not None

    def test_recv_on_killed_child_raises(self):
        worker = Worker(_echo_loop)
        worker.process.kill()
        with pytest.raises(WorkerLost):
            worker.recv(timeout=10)
        worker.kill()
        assert not worker.process.is_alive()
