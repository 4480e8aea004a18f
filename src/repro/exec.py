"""Worker processes: the one place in the package that starts them.

* :class:`Worker` — a long-lived process plus its duplex pipe, with a
  deadline receive and a stop → join → terminate → kill teardown (the
  fleet's supervised shard workers, :mod:`repro.fleet.executor`);
* :func:`map_tasks` — one fresh process per task, results in task
  order, bounded retries (the sweep engine and the ``hrm`` A/B).
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence

logger = logging.getLogger(__name__)

#: Granularity of a deadline receive (seconds between liveness checks
#: while waiting on a worker reply).
POLL_S = 0.05


def default_mp_context():
    """Prefer ``fork`` (workers inherit interpreter configuration, so
    jobs-1 and jobs-N agree byte-for-byte); fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerLost(RuntimeError):
    """A worker died, closed its pipe, or stayed silent past a deadline."""


class Worker:
    """One worker process and the parent's end of its duplex pipe.

    ``target(*args, conn)`` runs in the child with the child's end of
    the pipe as its last argument.
    """

    def __init__(self, target: Callable, args: Sequence = (),
                 mp_context=None, name: Optional[str] = None) -> None:
        ctx = mp_context if mp_context is not None else default_mp_context()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=target,
                                   args=(*args, child_conn),
                                   name=name, daemon=True)
        self.process.start()
        child_conn.close()

    def send(self, message) -> None:
        """Send, ignoring a broken pipe: death shows at receive time."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    def recv(self, timeout: float):
        """Poll-with-deadline receive: never blocks on a dead worker."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.conn.poll(POLL_S):
                    return self.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerLost(f"closed its pipe ({exc})") from exc
            if not self.process.is_alive():
                try:  # drain a final buffered reply, if any
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerLost("died")
            if time.monotonic() >= deadline:
                raise WorkerLost(f"wedged: no reply within {timeout:.1f}s")

    def kill(self) -> None:
        """SIGKILL the process (if alive), reap it, close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10)
        self.conn.close()

    def stop(self, timeout: float) -> None:
        """Send ``("stop",)``, escalating join → terminate → kill."""
        process = self.process
        if process.is_alive():
            self.send(("stop",))
        process.join(timeout=timeout)
        if process.is_alive():
            logger.warning("%s ignored stop for %.0fs; terminating",
                           process.name, timeout)
            process.terminate()
            process.join(timeout=timeout / 2)
        if process.is_alive():
            logger.warning("%s survived terminate; killing", process.name)
            process.kill()
            process.join()
        self.conn.close()


@dataclass
class TaskOutcome:
    """One task's last attempt: its result, or why it failed."""

    result: object
    attempts: int
    #: None on success; the crash or the caller's failure verdict.
    error: Optional[str] = None


def _task_main(fn: Callable, task, conn) -> None:
    """Subprocess entry: run one task, ship the result back, exit."""
    conn.send(fn(task))
    conn.close()


def map_tasks(fn: Callable, tasks: Sequence, jobs: int = 1,
              max_retries: int = 0,
              failed: Optional[Callable[[object], Optional[str]]] = None,
              on_outcome: Optional[Callable[[int, TaskOutcome, bool],
                                            None]] = None,
              mp_context=None) -> List[TaskOutcome]:
    """Run ``fn(task)`` for every task, each in a fresh process.

    At most ``jobs`` processes run at once.  A task is retried, up to
    ``max_retries`` times, when its process dies without replying or
    when ``failed(result)`` returns an error string.  ``on_outcome(index,
    outcome, retrying)`` hears every finished attempt in completion
    order.  Outcomes come back in task order, whatever the completion
    order, so the caller's report cannot depend on ``jobs``.
    """
    pending = deque(range(len(tasks)))
    attempts = [0] * len(tasks)
    outcomes: Dict[int, TaskOutcome] = {}
    running: Dict[int, Worker] = {}
    while pending or running:
        while pending and len(running) < jobs:
            index = pending.popleft()
            attempts[index] += 1
            running[index] = Worker(_task_main, (fn, tasks[index]),
                                    mp_context=mp_context)
        _connection_wait([worker.conn for worker in running.values()],
                         timeout=0.25)
        for index, worker in list(running.items()):
            replied = False
            result = None
            if worker.conn.poll():
                try:
                    result = worker.conn.recv()
                    replied = True
                except (EOFError, OSError):
                    pass
            elif worker.process.is_alive():
                continue
            worker.process.join()
            worker.conn.close()
            del running[index]
            if not replied:
                error: Optional[str] = (
                    f"worker crashed (exit code {worker.process.exitcode})")
            else:
                error = failed(result) if failed is not None else None
            outcome = TaskOutcome(result, attempts[index], error)
            retrying = error is not None and attempts[index] <= max_retries
            if retrying:
                pending.append(index)
            else:
                outcomes[index] = outcome
            if on_outcome is not None:
                on_outcome(index, outcome, retrying)
    return [outcomes[index] for index in range(len(tasks))]
