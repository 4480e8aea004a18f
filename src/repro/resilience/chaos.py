"""Seeded chaos engine: declarative fault plans for the control path.

The faults injected here are *control-plane* faults — the ones the paper's
resilience story implicitly assumes away: daemons stall, telemetry lies or
vanishes, heartbeats stop crossing the rack network, migrations die
mid-flight, recoveries do not stick.  Data-plane faults (bit flips,
crashes from undervolting) already live in ``repro.hardware.faults``; the
chaos engine attacks the machinery that is supposed to *react* to those.

Everything is deterministic: a :class:`FaultPlan` is either written by
hand or drawn from a seeded generator (:meth:`FaultPlan.random`), and all
in-campaign randomness (dropout draws, corruption noise, migration-abort
draws) comes from per-node named :class:`~repro.core.runtime.NodeRuntime`
streams, so the same seed replays the same campaign bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..core.exceptions import ConfigurationError

if TYPE_CHECKING:
    from ..cloudmgr.node import ComputeNode
    from .health import Heartbeat


class FaultKind(Enum):
    """The control-plane fault taxonomy."""

    #: HealthLog stops refreshing info vectors (daemon stall).
    HEALTHLOG_STALL = "healthlog_stall"
    #: The node-local failure Predictor dies: no risk verdicts.
    PREDICTOR_CRASH = "predictor_crash"
    #: Heartbeat payloads (risk verdicts, VM samples) are lost with some
    #: probability; the bare liveness signal still arrives.
    TELEMETRY_DROPOUT = "telemetry_dropout"
    #: Heartbeats arrive but their metrics are noise-corrupted.
    TELEMETRY_CORRUPTION = "telemetry_corruption"
    #: Full node <-> controller partition: no heartbeats at all.
    HEARTBEAT_LOSS = "heartbeat_loss"
    #: Live migrations from the node abort mid-flight.
    MIGRATION_FAILURE = "migration_failure"
    #: The node host-crashes once (hypervisor down, VMs failed).
    NODE_CRASH = "node_crash"
    #: The node re-crashes after every recovery while the window lasts.
    CRASH_LOOP = "crash_loop"
    #: Recovery commands are swallowed: reboot requests do nothing.
    STUCK_RECOVERY = "stuck_recovery"
    #: The EOP governor wedges: supervision stops (no demotions, no
    #: probation reviews) while the window lasts.  Not in the random
    #: menu — adding a kind there would re-roll every seeded plan.
    EOP_GOVERNOR_WEDGE = "eop_governor_wedge"
    #: Correlated fault-domain kinds (targets name a *domain*, not a
    #: node: ``pdu{i}``/``cooling{i}``/``rack{i}``).  Like the wedge,
    #: none of these join the random menu — they are drawn by the
    #: fleet's own :func:`repro.fleet.chaos.fleet_correlated_plan`.
    #: A shared PDU rail browns out: every node on it sags and may
    #: crash while the window lasts.
    PDU_BROWNOUT = "pdu_brownout"
    #: A cooling zone loses its chiller: effective ambient ramps up,
    #: raising DRAM retention-failure rates zone-wide.
    COOLING_FAILURE = "cooling_failure"
    #: A rack's network partitions: telemetry blackout and no new
    #: admissions for the window.
    RACK_PARTITION = "rack_partition"


#: Fault kinds whose effect is a window, not an instant.
_WINDOWED = frozenset({
    FaultKind.HEALTHLOG_STALL,
    FaultKind.PREDICTOR_CRASH,
    FaultKind.TELEMETRY_DROPOUT,
    FaultKind.TELEMETRY_CORRUPTION,
    FaultKind.HEARTBEAT_LOSS,
    FaultKind.MIGRATION_FAILURE,
    FaultKind.CRASH_LOOP,
    FaultKind.STUCK_RECOVERY,
    FaultKind.EOP_GOVERNOR_WEDGE,
    FaultKind.PDU_BROWNOUT,
    FaultKind.COOLING_FAILURE,
    FaultKind.RACK_PARTITION,
})


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what, where, when, how hard.

    ``magnitude`` is kind-specific: drop/abort probability for
    TELEMETRY_DROPOUT and MIGRATION_FAILURE, relative noise amplitude
    for TELEMETRY_CORRUPTION; ignored elsewhere.
    """

    kind: FaultKind
    node: str
    start_s: float
    duration_s: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("fault start must be >= 0")
        if self.duration_s < 0:
            raise ConfigurationError("fault duration must be >= 0")
        if self.kind in _WINDOWED and self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.kind.value} needs a positive duration")
        if not 0 <= self.magnitude <= 1:
            raise ConfigurationError("magnitude must be in [0, 1]")

    def active(self, now: float) -> bool:
        """Whether the fault window covers ``now``."""
        if self.kind not in _WINDOWED:
            return now >= self.start_s
        return self.start_s <= now < self.start_s + self.duration_s

    def describe(self) -> str:
        """One-line spec summary."""
        window = (f"[{self.start_s:.0f}s, "
                  f"{self.start_s + self.duration_s:.0f}s)"
                  if self.kind in _WINDOWED else f"at {self.start_s:.0f}s")
        return (f"{self.kind.value} on {self.node} {window} "
                f"magnitude={self.magnitude:.2f}")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots and campaign configs."""
        return {
            "kind": self.kind.value,
            "node": self.node,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "magnitude": self.magnitude,
        }

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FaultSpec":
        """Rebuild a spec saved by :meth:`as_dict`."""
        return FaultSpec(
            kind=FaultKind(state["kind"]),
            node=str(state["node"]),
            start_s=float(state["start_s"]),  # type: ignore[arg-type]
            duration_s=float(state["duration_s"]),  # type: ignore[arg-type]
            magnitude=float(state["magnitude"]),  # type: ignore[arg-type]
        )


#: Kinds eligible for randomly drawn plans, with relative weights and
#: (min, max) window durations in seconds.  NODE_CRASH is instantaneous.
_RANDOM_MENU: Tuple[Tuple[FaultKind, float, Tuple[float, float]], ...] = (
    (FaultKind.HEALTHLOG_STALL, 1.5, (240.0, 720.0)),
    (FaultKind.PREDICTOR_CRASH, 1.0, (300.0, 900.0)),
    (FaultKind.TELEMETRY_DROPOUT, 1.5, (180.0, 600.0)),
    (FaultKind.TELEMETRY_CORRUPTION, 1.0, (180.0, 600.0)),
    (FaultKind.HEARTBEAT_LOSS, 1.0, (180.0, 480.0)),
    (FaultKind.MIGRATION_FAILURE, 1.5, (300.0, 900.0)),
    (FaultKind.NODE_CRASH, 1.0, (0.0, 0.0)),
    (FaultKind.CRASH_LOOP, 1.0, (600.0, 1200.0)),
    (FaultKind.STUCK_RECOVERY, 1.0, (450.0, 900.0)),
)


def random_fault_specs(
        nodes: Sequence[str], duration_s: float,
        menu: Sequence[Tuple[FaultKind, float, Tuple[float, float]]],
        rate_per_hour: float, seed: int,
        intensity: float) -> List[FaultSpec]:
    """Draw seeded fault specs for ``nodes``, visited in the given order.

    ``menu`` lists ``(kind, relative weight, (min, max) window s)``; a
    zero-length window makes the kind instantaneous.  Each node draws a
    Poisson count at ``rate_per_hour`` per node-hour, then per fault a
    kind, a window, a start and a magnitude.  The kind draw is
    ``bisect_right`` of one ``rng.random()`` over the normalised weight
    cumsum: the draw and the comparison ``Generator.choice(k, p=...)``
    makes, without its per-call checks, so seeded plans keep their
    exact specs.  Shared by :meth:`FaultPlan.random` and the fleet's
    :func:`~repro.fleet.chaos.fleet_fault_plan`.
    """
    if not nodes:
        raise ConfigurationError("need at least one node")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if rate_per_hour < 0:
        raise ConfigurationError("rate must be >= 0")
    if not 0 < intensity <= 1:
        raise ConfigurationError("intensity must be in (0, 1]")
    rng = np.random.default_rng(seed)
    weights = np.array([entry[1] for entry in menu])
    cdf = np.cumsum(weights / weights.sum())
    cdf = (cdf / cdf[-1]).tolist()

    specs: List[FaultSpec] = []
    expected = rate_per_hour * duration_s / 3600.0
    for node in nodes:
        for _ in range(int(rng.poisson(expected))):
            kind, _weight, (lo, hi) = menu[bisect_right(cdf, rng.random())]
            fault_duration = float(rng.uniform(lo, hi)) if hi > 0 else 0.0
            # Leave room so windowed faults are not all cut short by
            # the campaign end.
            latest = max(0.0, duration_s - min(fault_duration, duration_s / 2))
            start = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
            magnitude = min(max(
                intensity * float(rng.uniform(0.6, 1.0)), 0.05), 1.0)
            specs.append(FaultSpec(
                kind=kind, node=node, start_s=start,
                duration_s=fault_duration, magnitude=magnitude))
    return specs


class FaultPlan:
    """An immutable, time-sorted collection of fault specs."""

    def __init__(self, specs: Iterable[FaultSpec]) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda s: (s.start_s, s.node, s.kind.value)))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def for_node(self, node: str) -> Tuple[FaultSpec, ...]:
        """The subset of specs targeting one node."""
        return tuple(s for s in self.specs if s.node == node)

    def for_kinds(self, kinds: Iterable[FaultKind]) -> "FaultPlan":
        """A new plan keeping only the given fault kinds.

        The vectorized fleet (:mod:`repro.fleet.chaos`) uses this to
        ignore control-plane kinds it does not simulate while replaying
        the same seeded plan the object stack sees.
        """
        wanted = frozenset(kinds)
        plan = FaultPlan.__new__(FaultPlan)
        # A filtered sorted sequence is still sorted.
        plan.specs = tuple(s for s in self.specs if s.kind in wanted)
        return plan

    @classmethod
    def random(cls, nodes: Sequence[str], duration_s: float,
               rate_per_hour: float = 4.0, seed: int = 0,
               intensity: float = 0.5) -> "FaultPlan":
        """Draw a reproducible plan from a seeded generator.

        ``rate_per_hour`` is the expected fault count per node-hour;
        ``intensity`` scales the magnitudes of probabilistic faults.
        """
        return cls(random_fault_specs(sorted(nodes), duration_s,
                                      _RANDOM_MENU, rate_per_hour, seed,
                                      intensity))

    def describe(self) -> str:
        """Multi-line plan summary."""
        if not self.specs:
            return "empty fault plan"
        return "\n".join(s.describe() for s in self.specs)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots and campaign configs."""
        return {"specs": [s.as_dict() for s in self.specs]}

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan saved by :meth:`as_dict`."""
        return FaultPlan(FaultSpec.from_dict(s)
                         for s in state["specs"])  # type: ignore[union-attr]


class ChaosEngine:
    """Executes a :class:`FaultPlan` against a rack of compute nodes.

    The engine has three touch points, called by the campaign loop and
    the control plane respectively:

    * :meth:`apply` — before each control step, reconcile node-side
      fault state (daemon stalls, crashes, stuck recoveries) with the
      windows active at ``now``;
    * :meth:`filter_heartbeat` — applied to each heartbeat in flight:
      may swallow it (loss/dropout) or corrupt it (noise);
    * :meth:`migration_should_fail` — consulted by the migration
      manager's failure hook mid-flight.

    All random draws use per-node runtime streams (``chaos.telemetry``,
    ``chaos.migration``) so campaigns replay bit-for-bit per seed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Indices into ``plan.specs`` of one-shot faults already fired.
        #: Stable positions (not object identities) so the fired-set
        #: survives serialization and process restarts.
        self._fired: set = set()
        self.injections: Dict[str, int] = {}

    def _count(self, kind: FaultKind) -> None:
        self.injections[kind.value] = self.injections.get(kind.value, 0) + 1

    def _active(self, kind: FaultKind, node: str,
                now: float) -> Optional[FaultSpec]:
        for spec in self.plan.specs:
            if spec.kind is kind and spec.node == node and spec.active(now):
                return spec
        return None

    # -- node-side fault reconciliation ------------------------------------

    def apply(self, nodes: Sequence["ComputeNode"], now: float) -> None:
        """Reconcile every node's fault state with the plan at ``now``."""
        for node in nodes:
            stall = self._active(FaultKind.HEALTHLOG_STALL, node.name, now)
            if stall is not None and not node.healthlog.stalled:
                self._count(FaultKind.HEALTHLOG_STALL)
            node.healthlog.stalled = stall is not None

            predictor = self._active(
                FaultKind.PREDICTOR_CRASH, node.name, now)
            if predictor is not None and not node.predictor_down:
                self._count(FaultKind.PREDICTOR_CRASH)
            node.predictor_down = predictor is not None

            stuck = self._active(FaultKind.STUCK_RECOVERY, node.name, now)
            if stuck is not None and not node.recovery_stuck:
                self._count(FaultKind.STUCK_RECOVERY)
            node.recovery_stuck = stuck is not None

            wedge = self._active(
                FaultKind.EOP_GOVERNOR_WEDGE, node.name, now)
            if wedge is not None and not node.governor.wedged:
                self._count(FaultKind.EOP_GOVERNOR_WEDGE)
            node.governor.wedged = wedge is not None

            for index, spec in enumerate(self.plan.specs):
                if spec.node == node.name \
                        and spec.kind is FaultKind.NODE_CRASH \
                        and spec.active(now) and index not in self._fired:
                    self._fired.add(index)
                    if not node.hypervisor.crashed:
                        node.hypervisor.inject_crash()
                    self._count(FaultKind.NODE_CRASH)

            loop = self._active(FaultKind.CRASH_LOOP, node.name, now)
            if loop is not None and not node.hypervisor.crashed:
                node.hypervisor.inject_crash()
                self._count(FaultKind.CRASH_LOOP)

    # -- control-path interception -----------------------------------------

    def filter_heartbeat(self, node: "ComputeNode",
                         heartbeat: "Heartbeat",
                         now: float) -> Optional["Heartbeat"]:
        """Pass, swallow or corrupt one heartbeat in flight."""
        if self._active(FaultKind.HEARTBEAT_LOSS, node.name, now) is not None:
            self._count(FaultKind.HEARTBEAT_LOSS)
            return None
        dropout = self._active(FaultKind.TELEMETRY_DROPOUT, node.name, now)
        if dropout is not None:
            rng = node.runtime.rng("chaos.telemetry")
            if rng.random() < dropout.magnitude:
                # The liveness signal survives; the payload does not.
                # (A full partition is FaultKind.HEARTBEAT_LOSS.)
                self._count(FaultKind.TELEMETRY_DROPOUT)
                heartbeat = replace(heartbeat, risk=None, vm_samples=(),
                                    horizon_report=None)
        corrupt = self._active(
            FaultKind.TELEMETRY_CORRUPTION, node.name, now)
        if corrupt is not None:
            self._count(FaultKind.TELEMETRY_CORRUPTION)
            return self._corrupt(node, heartbeat, corrupt.magnitude)
        return heartbeat

    def _corrupt(self, node: "ComputeNode", heartbeat: "Heartbeat",
                 magnitude: float) -> "Heartbeat":
        """Noise-corrupt the scheduling-relevant metric fields."""
        rng = node.runtime.rng("chaos.telemetry")

        def noisy(value: float, lo: float, hi: float) -> float:
            return float(np.clip(
                value * (1.0 + magnitude * (2.0 * rng.random() - 1.0)),
                lo, hi))

        metrics = heartbeat.metrics
        corrupted = replace(
            metrics,
            utilization=noisy(metrics.utilization, 0.0, 1.0),
            reliability=noisy(metrics.reliability, 0.0, 1.0),
            power_w=noisy(metrics.power_w, 0.0, float("inf")),
            frequency_fraction=noisy(
                metrics.frequency_fraction, 0.05, 2.0),
        )
        return replace(heartbeat, metrics=corrupted)

    def migration_should_fail(self, source: "ComputeNode",
                              destination: str, now: float) -> bool:
        """Whether a migration leaving ``source`` aborts mid-flight."""
        spec = self._active(FaultKind.MIGRATION_FAILURE, source.name, now)
        if spec is None:
            return False
        rng = source.runtime.rng("chaos.migration")
        if rng.random() < spec.magnitude:
            self._count(FaultKind.MIGRATION_FAILURE)
            return True
        return False

    def describe(self) -> str:
        """Injection counts so far, name-sorted."""
        if not self.injections:
            return "no faults injected"
        return ", ".join(f"{kind}={count}" for kind, count
                         in sorted(self.injections.items()))

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable engine cursor (the plan is config, not state)."""
        return {
            "fired": sorted(self._fired),
            "injections": dict(self.injections),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the cursor saved by :meth:`state_dict`."""
        self._fired = {int(i) for i in state["fired"]}  # type: ignore[union-attr]
        self.injections = {str(k): int(v) for k, v
                           in state["injections"].items()}  # type: ignore[union-attr]
