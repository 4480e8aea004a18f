"""Process-pool parallel campaign sweeps over seeds and config grids.

The paper's headline evidence is statistical — population studies over
many chips, seeds and operating points (Section 3) — yet a single
campaign is one seed in one process.  This module fans one experiment
out over a *seed list* crossed with a *config grid* (chaos A/B arms,
``nodes``/``rate``/``intensity`` axes), exploiting two guarantees the
stack already provides:

* **determinism** — every campaign is a pure function of its
  :class:`~repro.persistence.campaign.CampaignConfig` (the rack, the
  arrival trace and the fault plan all derive from the seed), so a
  sweep's outcome is independent of worker scheduling; and
* **canonical reports** — results reduce to plain dicts whose
  canonical-JSON form is byte-stable, so ``--jobs 1`` and ``--jobs N``
  sweeps produce *byte-identical* aggregate reports (the regression the
  scaling bench enforces).

Workers are shared-nothing subprocesses: each receives one picklable
:class:`SweepTask`, rebuilds the campaign world from config, and sends
back one picklable :class:`SweepRow` (the ``experiment`` drill-down
handle is stripped from :class:`~repro.resilience.campaign.CampaignResult`
before it crosses the process boundary).  The parent retries crashed
workers a bounded number of times and records permanent failures as
rows rather than aborting the sweep.

Jobs-1 and jobs-N sweeps agree byte-for-byte, within one parent
process and across processes: nothing in a row depends on the
interpreter's string-hash seed.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..core.exceptions import ConfigurationError
from ..persistence.campaign import CampaignConfig

#: CLI-friendly grid axis name -> (CampaignConfig field, coercion).
GRID_AXES: Dict[str, Tuple[str, Callable]] = {
    "nodes": ("n_nodes", int),
    "duration": ("duration_s", float),
    "rate": ("rate_per_hour", float),
    "intensity": ("intensity", float),
    "base_rate": ("base_rate_per_hour", float),
    "step": ("step_s", float),
    "policies": ("policies", str),
}

#: Axes that shape the drawn fault plan; they cannot vary when the
#: sweep replays one explicit plan across its points.
_PLAN_SHAPING_AXES = ("nodes", "duration", "rate", "intensity")


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a campaign config plus its identity."""

    index: int
    point: str
    seed: int
    config: CampaignConfig
    snapshot_dir: Optional[str] = None
    #: Harvest ledger-labelled prediction observations in the worker
    #: (the experiment handle never crosses the process boundary, so
    #: harvesting must happen where the world still exists).
    harvest: bool = False


@dataclass
class SweepRow:
    """One picklable sweep outcome (a campaign without its world).

    ``result`` holds the plain-dict form of
    :class:`~repro.resilience.campaign.CampaignResult` minus the
    unpicklable ``experiment`` handle; ``metrics_sha256`` digests the
    full cross-layer metrics snapshot the worker saw, so sweep-level
    determinism checks cover every layer, not just the headline numbers.
    """

    index: int
    point: str
    seed: int
    ok: bool
    attempts: int = 1
    error: Optional[str] = None
    metrics_sha256: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    #: Ledger-labelled prediction observations (only when the task was
    #: expanded with ``harvest=True``); reported through the separate
    #: harvest report, never the aggregate sweep report.
    harvest: Optional[List[Dict[str, object]]] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for the aggregate report.

        The harvest payload is excluded: a sweep must produce the same
        aggregate report bytes with and without the harvest hook.
        """
        state = asdict(self)
        state.pop("harvest", None)
        return state


@dataclass
class SweepSpec:
    """One experiment fanned over seeds and a config grid.

    ``grid`` maps axis names (see :data:`GRID_AXES`) to value lists;
    the sweep runs every grid point for every seed.  ``plan`` replays
    one explicit serialized fault plan at every point (the A/B use
    case); without it, each task draws its plan from its own seed —
    note two arms differing only in ``policies`` draw the *same* plan
    for the same seed, because the draw does not depend on the arm.
    """

    seeds: Tuple[int, ...] = (0,)
    n_nodes: int = 4
    duration_s: float = 3600.0
    policies: str = "on"
    rate_per_hour: float = 6.0
    intensity: float = 0.6
    base_rate_per_hour: float = 12.0
    step_s: float = 60.0
    grid: Dict[str, List[object]] = field(default_factory=dict)
    plan: Optional[Dict[str, object]] = None
    #: Per-task crash-safe snapshot directories are created under here.
    snapshot_root: Optional[str] = None
    #: Attach ledger-labelled prediction observations to every row
    #: (``repro sweep --harvest-labels``).  Excluded from
    #: :meth:`as_dict` so the aggregate report is harvest-independent.
    harvest: bool = False

    def __post_init__(self) -> None:
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("sweep seeds must be unique")
        for axis, values in self.grid.items():
            if axis not in GRID_AXES:
                raise ConfigurationError(
                    f"unknown grid axis {axis!r}; known axes: "
                    f"{', '.join(sorted(GRID_AXES))}")
            if not values:
                raise ConfigurationError(f"grid axis {axis!r} is empty")
        if self.plan is not None:
            fixed = [a for a in self.grid if a in _PLAN_SHAPING_AXES]
            if fixed:
                raise ConfigurationError(
                    "an explicit plan fixes the fault schedule; axes "
                    f"{fixed} would redraw it — drop them or the plan")

    def as_dict(self) -> Dict[str, object]:
        """Job-count-independent spec record for the aggregate report.

        ``snapshot_root`` is deliberately excluded: it is a host-local
        path, and reports from equivalent sweeps must stay
        byte-identical wherever their snapshots land.
        """
        return {
            "seeds": list(self.seeds),
            "n_nodes": self.n_nodes,
            "duration_s": self.duration_s,
            "policies": self.policies,
            "rate_per_hour": self.rate_per_hour,
            "intensity": self.intensity,
            "base_rate_per_hour": self.base_rate_per_hour,
            "step_s": self.step_s,
            "grid": {axis: list(values)
                     for axis, values in self.grid.items()},
            "plan": self.plan,
        }

    def points(self) -> List[Tuple[str, Dict[str, object]]]:
        """The expanded grid: (label, config overrides) per point."""
        combos: List[List[Tuple[str, object]]] = [[]]
        for axis, values in self.grid.items():
            combos = [combo + [(axis, value)]
                      for combo in combos for value in values]
        expanded = []
        for combo in combos:
            label = "/".join(f"{axis}={value}" for axis, value in combo) \
                or "base"
            overrides = {
                GRID_AXES[axis][0]: GRID_AXES[axis][1](value)
                for axis, value in combo
            }
            expanded.append((label, overrides))
        return expanded

    def expand(self) -> List[SweepTask]:
        """Every task of the sweep, in deterministic order."""
        tasks: List[SweepTask] = []
        for label, overrides in self.points():
            base = {
                "n_nodes": self.n_nodes,
                "duration_s": self.duration_s,
                "policies": self.policies,
                "rate_per_hour": self.rate_per_hour,
                "intensity": self.intensity,
                "base_rate_per_hour": self.base_rate_per_hour,
                "step_s": self.step_s,
                "plan": self.plan,
            }
            base.update(overrides)
            for seed in self.seeds:
                index = len(tasks)
                snapshot_dir = None
                if self.snapshot_root is not None:
                    snapshot_dir = os.path.join(
                        self.snapshot_root, f"task-{index:04d}")
                tasks.append(SweepTask(
                    index=index, point=label, seed=seed,
                    config=CampaignConfig(seed=seed, label=label, **base),
                    snapshot_dir=snapshot_dir,
                    harvest=self.harvest))
        return tasks


@dataclass
class SweepResult:
    """Every row of one sweep, in task order."""

    spec: SweepSpec
    rows: List[SweepRow]

    @property
    def failures(self) -> List[SweepRow]:
        """Rows whose task failed permanently (after retries)."""
        return [row for row in self.rows if not row.ok]


def campaign_result_from_row(row: SweepRow):
    """Rebuild a :class:`CampaignResult` from a worker's row.

    The ``experiment`` drill-down handle stayed behind in the worker
    process, so it is ``None`` on the rebuilt result.
    """
    from ..resilience.campaign import CampaignResult

    if not row.ok or row.result is None:
        raise ConfigurationError(
            f"row {row.index} ({row.point} seed={row.seed}) carries no "
            f"result: {row.error}")
    return CampaignResult(**row.result)


def run_sweep_task(task: SweepTask) -> SweepRow:
    """Execute one campaign point in the current (worker) process.

    Exceptions become ``ok=False`` rows rather than propagating — the
    parent decides whether to retry.  With a ``snapshot_dir`` the task
    runs through the crash-safe :class:`PersistentCampaign` runtime
    (proven bit-equivalent to the direct path by the kill/resume
    bench); otherwise it runs the direct in-memory campaign.
    """
    from ..persistence import payload_checksum, run_persistent_campaign
    from ..resilience.campaign import run_chaos_campaign
    from ..resilience.chaos import FaultPlan
    from ..resilience.policies import DegradationConfig

    config = task.config.finalized()
    try:
        if task.snapshot_dir is not None:
            result = run_persistent_campaign(
                config, snapshot_dir=task.snapshot_dir)
        else:
            degradation = (DegradationConfig.on()
                           if config.policies == "on"
                           else DegradationConfig.off())
            result = run_chaos_campaign(
                n_nodes=config.n_nodes, duration_s=config.duration_s,
                seed=config.seed,
                plan=FaultPlan.from_dict(config.plan),  # type: ignore[arg-type]
                degradation=degradation,
                base_rate_per_hour=config.base_rate_per_hour,
                step_s=config.step_s, label=config.label)
    except Exception as exc:  # noqa: BLE001 — crossing a process boundary
        return SweepRow(index=task.index, point=task.point,
                        seed=task.seed, ok=False,
                        error=f"{type(exc).__name__}: {exc}")
    metrics_sha = payload_checksum(
        result.experiment.cloud.metrics_snapshot())
    harvest = None
    if task.harvest:
        from .harvest import harvest_observations
        harvest = harvest_observations(result.experiment)
    payload = asdict(replace(result, experiment=None))
    payload.pop("experiment", None)
    return SweepRow(index=task.index, point=task.point, seed=task.seed,
                    ok=True, metrics_sha256=metrics_sha, result=payload,
                    harvest=harvest)


def _worker_main(worker: Callable[[SweepTask], SweepRow],
                 task: SweepTask, conn) -> None:
    """Subprocess entry: run one task, ship the row back, exit."""
    row = worker(task)
    conn.send(row)
    conn.close()


def default_mp_context():
    """Prefer ``fork`` (workers inherit interpreter configuration, so
    jobs-1 and jobs-N agree byte-for-byte); fall back to ``spawn``.

    Shared by the sweep engine and the fleet campaign executor — any
    shared-nothing worker pool in the repo should start workers the
    same way for the same determinism argument.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sweep(spec: SweepSpec, jobs: int = 1, max_retries: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              worker: Callable[[SweepTask], SweepRow] = run_sweep_task,
              mp_context=None) -> SweepResult:
    """Run every task of ``spec`` across ``jobs`` worker subprocesses.

    All tasks — even at ``jobs=1`` — run in worker subprocesses, so the
    serial and parallel paths are numerically the same code.  A worker
    that crashes (dies without shipping a row) or ships an ``ok=False``
    row is retried up to ``max_retries`` times; a task still failing
    after that is recorded as a failure row and the sweep continues.

    Rows come back in task order regardless of completion order, which
    is what makes the aggregate report independent of ``jobs``.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    tasks = spec.expand()
    ctx = mp_context if mp_context is not None else default_mp_context()

    pending = deque(tasks)
    attempts: Dict[int, int] = {task.index: 0 for task in tasks}
    rows: Dict[int, SweepRow] = {}
    running: Dict[int, Tuple[object, object, SweepTask]] = {}
    total = len(tasks)

    def _note(line: str) -> None:
        if progress is not None:
            progress(line)

    def _launch(task: SweepTask) -> None:
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_worker_main,
                              args=(worker, task, sender), daemon=True)
        attempts[task.index] += 1
        process.start()
        sender.close()
        running[task.index] = (process, receiver, task)

    while pending or running:
        while pending and len(running) < jobs:
            _launch(pending.popleft())
        _connection_wait([conn for _, conn, _ in running.values()],
                         timeout=0.25)
        for index, (process, conn, task) in list(running.items()):
            row: Optional[SweepRow] = None
            if conn.poll():
                try:
                    row = conn.recv()
                except (EOFError, OSError):
                    row = None
            elif process.is_alive():
                continue
            process.join()
            conn.close()
            del running[index]
            if row is not None and row.ok:
                row.attempts = attempts[index]
                rows[index] = row
                availability = (row.result or {}).get(
                    "fleet_availability")
                _note(f"[{len(rows)}/{total}] {task.point} "
                      f"seed={task.seed} ok "
                      f"availability={availability:.4f} "
                      f"(attempt {row.attempts})")
                continue
            error = (row.error if row is not None else
                     f"worker crashed (exit code {process.exitcode})")
            if attempts[index] <= max_retries:
                _note(f"[retry {attempts[index]}/{max_retries + 1}] "
                      f"{task.point} seed={task.seed}: {error}")
                pending.append(task)
            else:
                rows[index] = SweepRow(
                    index=index, point=task.point, seed=task.seed,
                    ok=False, attempts=attempts[index], error=error)
                _note(f"[{len(rows)}/{total}] {task.point} "
                      f"seed={task.seed} FAILED after "
                      f"{attempts[index]} attempts: {error}")
    return SweepResult(spec=spec,
                       rows=[rows[task.index] for task in tasks])
