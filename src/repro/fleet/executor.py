"""Fleet executors: who steps the shards' physics, and where.

Both executors offer ``step(t, used, want_sample)`` (the sampled
``power_w``/``margin_on`` fleet arrays, or None), ``arrays()`` and
``load(pieces)`` (per-shard dynamics by shard index),
``quarantined_mask()``, ``close()``, ``chaos`` and
``worker_restarts_total``.  :class:`ShardStepper` is the one object
that steps shards: over every shard it *is* the in-process executor; a
worker process runs one over its shards, and a quarantine replays one
in the parent.  :class:`ProcessExecutor` supervises the workers.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import (
    ConfigurationError,
    FleetWorkerError,
    PersistenceError,
)
from ..exec import POLL_S, Worker, WorkerLost
from .chaos import FleetChaos
from .state import DYNAMIC_FIELDS, FleetState, shard_bounds
from .vectors import FleetVectors, build_fleet_state

logger = logging.getLogger(__name__)

#: Arrays a telemetry sample reads.
SAMPLE_FIELDS = ("power_w", "margin_on")

#: Every dynamic array's name (what snapshots and reports read).
DYNAMIC_NAMES = tuple(name for name, _ in DYNAMIC_FIELDS)

#: ``down_until_step`` sentinel for permanently quarantined nodes.
_FOREVER = 2**62

#: Per-shard arrays, keyed by shard index.
Pieces = Mapping[int, Optional[Dict[str, np.ndarray]]]


def concat_shards(pieces: Pieces, names: Iterable[str],
                  n_nodes: int) -> Dict[str, np.ndarray]:
    """Reassemble per-shard arrays into fleet arrays in node order."""
    out = {}
    for name in names:
        out[name] = np.concatenate(
            [pieces[i][name] for i in range(len(pieces))])
        if out[name].shape[0] != n_nodes:
            raise PersistenceError("shard reassembly size mismatch")
    return out


class ShardStepper:
    """Steps the owned shards of one fleet state with the config's kernel.

    ``shards`` defaults to every shard, which makes the stepper the
    in-process executor: it then steps the whole fleet in the calling
    process, has no workers and never quarantines.
    """

    worker_restarts_total = 0

    def __init__(self, config, state: FleetState,
                 chaos: Optional[FleetChaos],
                 shards: Optional[Iterable[int]] = None) -> None:
        self.config = config
        self.state = state
        self.chaos = chaos
        self.vectors = FleetVectors(config.fleet)
        self.bounds = shard_bounds(config.fleet.n_nodes, config.shards)
        if shards is None:
            shards = range(len(self.bounds))
        self._owned: List[Tuple[int, FleetState, object]] = []
        for i in shards:
            lo, hi = self.bounds[i]
            self._owned.append(
                (i, state.view(lo, hi),
                 chaos.view(lo, hi) if chaos is not None else None))

    def advance(self, t: int, used) -> None:
        """Step every owned shard under admission inputs ``used``."""
        self.state.used_vcpus[:] = used
        vector = self.config.stepper == "vector"
        for _i, view, chaos_view in self._owned:
            if vector:
                self.vectors.step(view, t, chaos_view)
            else:
                for index in range(view.n):
                    self.vectors.step_node(view, index, t, chaos_view)

    def load(self, pieces: Pieces) -> None:
        """Overlay owned shards' dynamics (None = keep as built)."""
        for i, view, _c in self._owned:
            piece = pieces.get(i)
            if piece is None:
                continue
            for name, dtype in DYNAMIC_FIELDS:
                getattr(view, name)[:] = np.asarray(piece[name],
                                                    dtype=dtype)

    def arrays(self, names: Sequence[str] = DYNAMIC_NAMES
               ) -> Dict[int, Dict[str, np.ndarray]]:
        """Copies of the owned shards' named arrays, by shard index."""
        return {i: {name: getattr(view, name).copy() for name in names}
                for i, view, _c in self._owned}

    # -- the executor interface (over every shard) ------------------------

    def step(self, t: int, used,
             want_sample: bool) -> Optional[Dict[str, np.ndarray]]:
        self.advance(t, used)
        if not want_sample:
            return None
        return {name: getattr(self.state, name).copy()
                for name in SAMPLE_FIELDS}

    def quarantined_mask(self) -> np.ndarray:
        """In-process stepping has no workers, hence no quarantine."""
        return np.zeros(self.config.fleet.n_nodes, dtype=bool)

    def close(self) -> None:
        pass


def _fleet_worker_main(config, state: FleetState,
                       chaos: Optional[FleetChaos],
                       shard_indices: List[int], conn) -> None:
    """Worker entry: own a subset of shards, step on command.

    ``state`` is the parent's pristine fleet state and ``chaos`` its
    compiled fault plan, inherited as process arguments (without a copy
    under ``fork``, pickled under ``spawn``), so the worker builds
    nothing.  It owns its copy of ``state`` but steps only its assigned
    shard views — shared-nothing over shards, byte-identical to any
    other partition.  Every reply carries the step it acknowledges (-1
    for non-step commands), feeding the parent's liveness ledger.
    """
    stepper = ShardStepper(config, state, chaos, shard_indices)
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "load":
            stepper.load(message[1])
            conn.send(("ok", -1))
        elif kind == "replay":
            for t, used in message[1]:
                stepper.advance(t, used)
            conn.send(("ok", -1))
        elif kind == "step":
            _, t, used, want_sample = message
            stepper.advance(t, used)
            if want_sample:
                conn.send(("sample", stepper.arrays(SAMPLE_FIELDS), t))
            else:
                conn.send(("ok", t))
        elif kind == "gather":
            conn.send(("state", stepper.arrays(), -1))
        else:
            raise RuntimeError(f"unknown fleet worker command {kind!r}")
    conn.close()


class ProcessExecutor:
    """Steps shards across supervised shared-nothing worker processes.

    Shards are dealt round-robin to ``jobs`` workers; every step is a
    barrier: the parent broadcasts, then collects acknowledgements in
    worker order before continuing.  Every receive polls with a
    deadline; a dead, wedged, or straggling worker is SIGKILLed,
    respawned, and deterministically replayed from the last per-shard
    checkpoint plus the recorded admission inputs.  A worker that
    exhausts ``max_worker_restarts`` has its shards quarantined: the
    parent replays them in-process to the failure step, marks their
    nodes DOWN, and freezes them for the rest of the campaign.

    The parent builds the fleet state and compiles the chaos once;
    every worker, respawned ones included, inherits both.  ``pristine``
    is that step-0 state: the parent never steps it, and a quarantine
    replay steps a copy.
    """

    #: First patience for ``close()``; escalation halves it.
    CLOSE_JOIN_TIMEOUT_S = 10.0

    def __init__(self, config, jobs: int,
                 mp_context=None, worker_timeout_s: float = 30.0,
                 max_worker_restarts: int = 2,
                 checkpoint_every_steps: Optional[int] = 25,
                 kill_worker_at: Sequence[Tuple[int, int]] = ()) -> None:
        if worker_timeout_s <= 0:
            raise ConfigurationError("worker timeout must be positive")
        if max_worker_restarts < 0:
            raise ConfigurationError(
                "max_worker_restarts cannot be negative")
        if checkpoint_every_steps is not None \
                and checkpoint_every_steps < 1:
            raise ConfigurationError(
                "checkpoint_every_steps must be >= 1")
        self.config = config
        self.bounds = shard_bounds(config.fleet.n_nodes, config.shards)
        self._mp_context = mp_context
        jobs = min(jobs, len(self.bounds))
        self.jobs = jobs
        self.worker_timeout_s = worker_timeout_s
        self.max_worker_restarts = max_worker_restarts
        self.checkpoint_every_steps = checkpoint_every_steps
        self._assignment = [list(range(w, len(self.bounds), jobs))
                            for w in range(jobs)]
        self._kill_at: Dict[int, List[int]] = {}
        for step, worker in kill_worker_at:
            if not 0 <= worker < jobs:
                raise ConfigurationError(
                    f"kill target worker {worker} outside [0, {jobs})")
            if step < 0:
                raise ConfigurationError("kill step must be >= 0")
            self._kill_at.setdefault(int(step), []).append(int(worker))
        self.pristine = build_fleet_state(config.fleet)
        self.chaos = config.build_chaos(keys=self.pristine.keys)
        self._restarts = [0] * jobs
        self._last_acked: List[Optional[int]] = [None] * jobs
        self._quarantined_workers: set = set()
        #: Last known-good per-shard dynamics (None = fresh build).
        self._ckpt: Dict[int, Optional[Dict[str, np.ndarray]]] = {
            i: None for i in range(len(self.bounds))}
        #: Admission inputs since the last checkpoint — the replay log.
        self._history: List[Tuple[int, np.ndarray]] = []
        self.worker_restarts_total = 0
        self._workers: List[Worker] = [self._spawn(worker)
                                       for worker in range(jobs)]

    # -- supervised plumbing ----------------------------------------------

    def _spawn(self, worker: int) -> Worker:
        self._last_acked[worker] = None
        return Worker(_fleet_worker_main,
                      (self.config, self.pristine, self.chaos,
                       self._assignment[worker]),
                      mp_context=self._mp_context,
                      name=f"fleet worker {worker}")

    def _live_workers(self) -> List[int]:
        return [w for w in range(self.jobs)
                if w not in self._quarantined_workers]

    def _failure(self, worker: int, what: str) -> FleetWorkerError:
        return FleetWorkerError(
            f"fleet worker {worker} "
            f"(shards {self._assignment[worker]}) {what}; "
            f"last acked step: {self._last_acked[worker]}",
            worker=worker, shards=self._assignment[worker],
            last_acked_step=self._last_acked[worker])

    def _recv(self, worker: int, timeout: Optional[float] = None):
        try:
            return self._workers[worker].recv(
                self.worker_timeout_s if timeout is None else timeout)
        except WorkerLost as exc:
            raise self._failure(worker, str(exc)) from exc

    def _note_ack(self, worker: int, reply) -> None:
        step = reply[-1] if reply and isinstance(reply[-1], int) else -1
        if reply[0] in ("ok", "sample") and step >= 0:
            self._last_acked[worker] = step

    def _restart(self, worker: int) -> bool:
        """Kill + respawn one worker; False once the budget is spent."""
        self._workers[worker].kill()
        self._restarts[worker] += 1
        self.worker_restarts_total += 1
        if self._restarts[worker] > self.max_worker_restarts:
            return False
        self._workers[worker] = self._spawn(worker)
        logger.warning(
            "fleet worker %d respawned (restart %d/%d)", worker,
            self._restarts[worker], self.max_worker_restarts)
        return True

    def _reload_and_replay(self, worker: int,
                           replay: List[Tuple[int, np.ndarray]]) -> None:
        """Rebuild a respawned worker: checkpoint overlay + re-step."""
        handle = self._workers[worker]
        handle.send(("load", {i: self._ckpt[i]
                              for i in self._assignment[worker]}))
        reply = self._recv(worker)
        if reply[0] != "ok":
            raise self._failure(
                worker, f"broke protocol on reload ({reply[0]!r})")
        if replay:
            handle.send(("replay", list(replay)))
            reply = self._recv(
                worker, timeout=self.worker_timeout_s
                + POLL_S * len(replay))
            if reply[0] != "ok":
                raise self._failure(
                    worker, f"broke protocol on replay ({reply[0]!r})")

    def _collect(self, worker: int, message,
                 replay: List[Tuple[int, np.ndarray]]):
        """Receive one reply, recovering through worker failures.

        ``message`` is the already-sent command (resent after a
        respawn); ``replay`` is the admission-input log to re-step
        first.  Returns None when the worker got quarantined instead.
        """
        while True:
            try:
                reply = self._recv(worker)
            except FleetWorkerError as failure:
                logger.warning("supervising: %s", failure)
                if not self._restart(worker):
                    self._quarantine(worker, message, replay)
                    return None
                try:
                    self._reload_and_replay(worker, replay)
                    self._workers[worker].send(message)
                except FleetWorkerError as exc:
                    logger.warning(
                        "respawned worker failed during replay: %s",
                        exc)
                continue
            self._note_ack(worker, reply)
            return reply

    def _broadcast(self, messages: Mapping[int, object],
                   replay: List[Tuple[int, np.ndarray]], expect: str
                   ) -> Dict[int, Dict[str, np.ndarray]]:
        """Send each live worker its message, then collect the replies
        in worker order; returns the merged per-shard payloads."""
        for worker, message in messages.items():
            self._workers[worker].send(message)
        pieces: Dict[int, Dict[str, np.ndarray]] = {}
        for worker, message in messages.items():
            reply = self._collect(worker, message, replay)
            if reply is None:
                continue
            if reply[0] != expect:
                raise PersistenceError(
                    f"fleet worker protocol error: {reply[0]!r}")
            if expect != "ok":
                pieces.update(reply[1])
        return pieces

    # -- quarantine escalation --------------------------------------------

    def _quarantine(self, worker: int, message,
                    replay: List[Tuple[int, np.ndarray]]) -> None:
        """Freeze a hopeless worker's shards at the failure step.

        The parent replays the shards in-process (checkpoint overlay +
        recorded admission inputs + the in-flight step, if any) so the
        frozen state is exactly what the worker would have computed,
        then marks every node DOWN and quarantined.
        """
        logger.error(
            "fleet worker %d exhausted %d restart(s); quarantining "
            "shards %s", worker, self.max_worker_restarts,
            self._assignment[worker])
        stepper = ShardStepper(self.config, self.pristine.copy(),
                               self.chaos, self._assignment[worker])
        stepper.load(self._ckpt)
        steps = list(replay)
        if message and message[0] == "step":
            steps.append((message[1], message[2]))
        for t, used in steps:
            stepper.advance(t, used)
        for i, arrays in stepper.arrays().items():
            arrays["quarantined"][:] = True
            arrays["down_until_step"][:] = _FOREVER
            self._ckpt[i] = arrays
        self._quarantined_workers.add(worker)

    def quarantined_mask(self) -> np.ndarray:
        """Boolean per-node mask of quarantined (frozen) shards."""
        mask = np.zeros(self.config.fleet.n_nodes, dtype=bool)
        for worker in self._quarantined_workers:
            for i in self._assignment[worker]:
                lo, hi = self.bounds[i]
                mask[lo:hi] = True
        return mask

    # -- the per-step barrier ----------------------------------------------

    def _maybe_kill(self, t: int) -> None:
        """Deliver injected SIGKILLs scheduled for step ``t``."""
        for worker in self._kill_at.get(t, ()):
            if worker in self._quarantined_workers:
                continue
            process = self._workers[worker].process
            if process.is_alive():
                process.kill()
                logger.warning(
                    "injected SIGKILL into fleet worker %d at step %d",
                    worker, t)

    def step(self, t: int, used,
             want_sample: bool) -> Optional[Dict[str, np.ndarray]]:
        self._maybe_kill(t)
        used = np.array(used, dtype=np.int64)
        self._history.append((t, used))
        message = ("step", t, used, want_sample)
        pieces = self._broadcast(
            {worker: message for worker in self._live_workers()},
            self._history[:-1], "sample" if want_sample else "ok")
        if (self.checkpoint_every_steps is not None
                and len(self._history) >= self.checkpoint_every_steps):
            self._checkpoint()
        if not want_sample:
            return None
        for i in range(len(self.bounds)):
            if i not in pieces:  # quarantined: frozen at failure step
                pieces[i] = self._ckpt[i]
        return concat_shards(pieces, SAMPLE_FIELDS,
                             self.config.fleet.n_nodes)

    # -- checkpoints, gather, load -----------------------------------------

    def _gather_pieces(self) -> Dict[int, Dict[str, np.ndarray]]:
        message = ("gather",)
        return self._broadcast(
            {worker: message for worker in self._live_workers()},
            list(self._history), "state")

    def _checkpoint(self) -> None:
        """Refresh the per-shard replay baseline, trim the input log."""
        self._ckpt.update(self._gather_pieces())
        self._history.clear()

    def arrays(self) -> Dict[int, Dict[str, np.ndarray]]:
        pieces = self._gather_pieces()
        for i in range(len(self.bounds)):
            if i not in pieces:  # quarantined: frozen state
                pieces[i] = self._ckpt[i]
        return pieces

    def load(self, pieces: Pieces) -> None:
        self._ckpt.update(pieces)
        self._history.clear()
        self._broadcast(
            {worker: ("load", {i: self._ckpt[i]
                               for i in self._assignment[worker]})
             for worker in self._live_workers()}, [], "ok")

    def close(self) -> None:
        """Stop workers, escalating join → terminate → kill on hangs."""
        for handle in self._workers:
            handle.stop(self.CLOSE_JOIN_TIMEOUT_S)
