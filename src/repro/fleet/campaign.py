"""Vectorized fleet campaigns: supervised shards in parallel in one run.

The sweep engine parallelizes *across* campaigns; this module
parallelizes *within* one.  The fleet is split into contiguous node
shards (:func:`~repro.fleet.state.shard_bounds`); each shard steps
through the :class:`~repro.fleet.vectors.FleetVectors` batch models,
either in-process or across shared-nothing worker subprocesses (the
executors in :mod:`repro.fleet.executor`, which start their workers
through :mod:`repro.exec`).

**Determinism contract** (pinned by ``tests/test_fleet_campaign.py``
and priced by ``benchmarks/bench_fleet_scaling.py`` /
``benchmarks/bench_fleet_chaos.py``): the campaign report is
byte-identical across ``stepper`` (vector vs. naive per-node loop),
``shards``, ``jobs`` — and across **worker deaths**.  Four mechanisms
carry it:

* all randomness is counter-based (:mod:`repro.fleet.vectors`,
  :mod:`repro.fleet.chaos`), so a draw depends on ``(node key, step,
  channel, lane)`` — never on which shard or process computed it;
* the arrival/placement/departure process runs entirely in the parent
  over the global node arrays, so admission decisions cannot depend on
  the shard split;
* workers advance in lockstep behind a per-step barrier — the parent
  collects every shard's acknowledgement (in worker order) before the
  next step — and telemetry reductions run in the parent over arrays
  reassembled in node-index order;
* every worker exchange is *supervised*: receives poll with a
  deadline, a dead or wedged worker is SIGKILLed, respawned, and
  deterministically **replayed** — its shards rebuilt from the last
  per-shard checkpoint plus re-stepping the counter-based kernels over
  the recorded admission inputs — so the respawned worker reaches the
  exact state the dead one would have had.

When a worker exhausts ``max_worker_restarts``, its shards are
**quarantined**: their nodes are marked DOWN in :class:`FleetState`,
admission routes around them, their physics freeze at the failure
step, and the quarantine is recorded in the report — the campaign
degrades gracefully instead of dying.

Snapshots reuse the :class:`~repro.persistence.snapshot.SnapshotStore`
rebuild-from-config-then-overlay protocol at **per-shard granularity**
(:func:`~repro.persistence.snapshot.shard_entries`): statics regenerate
from the config, each shard's dynamics ride in an individually
checksummed entry.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clock import step_count
from ..core.exceptions import ConfigurationError, PersistenceError
from ..persistence.snapshot import (
    SnapshotStore,
    shard_entries,
    verify_shard_entries,
)
from ..resilience.chaos import FaultPlan
from .chaos import (
    CORRELATED_FAULT_KINDS,
    FleetChaos,
    fleet_correlated_plan,
    fleet_fault_plan,
)
from .domains import FaultDomainTopology
from .executor import (
    DYNAMIC_NAMES,
    ProcessExecutor,
    ShardStepper,
    concat_shards,
)
from .report import fleet_campaign_report
from .state import DYNAMIC_FIELDS, FleetConfig, shard_bounds
from .vectors import (
    CH_ARRIVAL_COUNT,
    CH_ARRIVAL_LIFETIME,
    CH_ARRIVAL_SIZE,
    arrival_counter_key,
    build_fleet_state,
    counter_uniform,
)

STEPPERS = ("vector", "scalar")


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Everything needed to rebuild a fleet campaign from scratch.

    ``shards``/``stepper`` are execution knobs: they ride in snapshots
    (a resume rebuilds the same execution by default) but are excluded
    from the report's config echo, because the report must not depend
    on them.  The chaos knobs (``chaos_seed`` and friends) are *not*
    execution knobs — injected faults change the physics, so they stay
    in the echo.  Supervision knobs (worker timeouts, restart budgets,
    kill injection) live on :class:`FleetCampaign`, not here: they must
    never perturb the report.
    """

    fleet: FleetConfig = field(default_factory=FleetConfig)
    duration_s: float = 3600.0
    arrivals_per_hour: float = 120.0
    mean_lifetime_s: float = 1800.0
    max_vcpus: int = 4
    telemetry_every_steps: int = 10
    shards: int = 1
    stepper: str = "vector"
    label: str = "fleet"
    #: Seeded vectorized fault plan (None = no chaos).
    chaos_seed: Optional[int] = None
    chaos_rate_per_hour: float = 6.0
    chaos_intensity: float = 0.5
    #: Steps a node stays DOWN after an injected crash.
    crash_down_steps: int = 5
    #: Seeded *correlated* fault plan over the fault-domain topology
    #: (None = no correlated chaos).  Independent of ``chaos_seed`` so
    #: the two storms compose freely.
    correlated_seed: Optional[int] = None
    correlated_rate_per_hour: float = 1.0
    correlated_intensity: float = 0.7
    #: Domain-aware defenses: the correlated-demotion guard in the
    #: step kernels, rack anti-affinity + at-risk routing in admission,
    #: and bounded evacuation off at-risk domains.  A physics knob (it
    #: changes the report), which is the point — the A/B arms differ
    #: only here.
    domain_defense: bool = False
    #: Synthetic tenants for anti-affinity accounting (VM ``seq %
    #: tenants`` — deterministic, so it never needs persisting).
    tenants: int = 4
    #: Evacuation backpressure: inbound migrations per target rack per
    #: step, so fleeing a brownout cannot stampede the survivors.
    max_migrations_per_rack_step: int = 2

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.arrivals_per_hour < 0:
            raise ConfigurationError("arrival rate cannot be negative")
        if self.mean_lifetime_s <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if not 1 <= self.max_vcpus <= self.fleet.vcpus_per_node:
            raise ConfigurationError(
                "max_vcpus must be in [1, vcpus_per_node]")
        if self.telemetry_every_steps < 1:
            raise ConfigurationError(
                "telemetry_every_steps must be >= 1")
        if self.stepper not in STEPPERS:
            raise ConfigurationError(
                f"stepper must be one of {STEPPERS}")
        if self.chaos_rate_per_hour < 0:
            raise ConfigurationError("chaos rate cannot be negative")
        if not 0 < self.chaos_intensity <= 1:
            raise ConfigurationError(
                "chaos intensity must be in (0, 1]")
        if self.crash_down_steps < 1:
            raise ConfigurationError("crash_down_steps must be >= 1")
        if self.correlated_rate_per_hour < 0:
            raise ConfigurationError(
                "correlated rate cannot be negative")
        if not 0 < self.correlated_intensity <= 1:
            raise ConfigurationError(
                "correlated intensity must be in (0, 1]")
        if self.tenants < 1:
            raise ConfigurationError("tenants must be >= 1")
        if self.max_migrations_per_rack_step < 1:
            raise ConfigurationError(
                "max_migrations_per_rack_step must be >= 1")
        shard_bounds(self.fleet.n_nodes, self.shards)  # validates

    @property
    def n_steps(self) -> int:
        """Total steps in the campaign window."""
        return step_count(self.duration_s, self.fleet.step_s)

    def fault_plan(self):
        """The seeded fleet fault plan, or None without chaos."""
        if self.chaos_seed is None:
            return None
        return fleet_fault_plan(
            self.fleet.n_nodes, self.duration_s, seed=self.chaos_seed,
            rate_per_hour=self.chaos_rate_per_hour,
            intensity=self.chaos_intensity)

    def correlated_plan(self):
        """The seeded correlated-domain plan, or None without one."""
        if self.correlated_seed is None:
            return None
        return fleet_correlated_plan(
            self.fleet, self.duration_s, seed=self.correlated_seed,
            rate_per_hour=self.correlated_rate_per_hour,
            intensity=self.correlated_intensity)

    def build_chaos(self, keys=None) -> Optional[FleetChaos]:
        """Compile the fault plan(s) to mask kernels (None without chaos).

        Pure function of the config: the executor compiles it once and
        its workers inherit the compiled object.  The per-node and
        correlated plans merge into one compiled object.
        """
        plans = [plan for plan in (self.fault_plan(),
                                   self.correlated_plan())
                 if plan is not None]
        if not plans:
            return None
        # One plan is already sorted; two merge with one sort.
        merged = (plans[0] if len(plans) == 1 else
                  FaultPlan(plans[0].specs + plans[1].specs))
        return FleetChaos(merged, self.fleet,
                          crash_down_steps=self.crash_down_steps,
                          keys=keys, defense=self.domain_defense)

    def as_dict(self) -> Dict[str, object]:
        """Full plain-dict form (snapshot payloads)."""
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["fleet"] = self.fleet.as_dict()
        return state

    def as_report_dict(self) -> Dict[str, object]:
        """Config echo for reports: execution knobs stripped."""
        state = self.as_dict()
        del state["shards"]
        del state["stepper"]
        return state

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FleetCampaignConfig":
        """Rebuild a config saved by :meth:`as_dict`."""
        state = dict(state)
        state["fleet"] = FleetConfig.from_dict(state["fleet"])  # type: ignore[arg-type]
        return FleetCampaignConfig(**state)  # type: ignore[arg-type]


# -- the campaign loop --------------------------------------------------------


class FleetCampaign:
    """One vectorized fleet campaign: arrivals, stepping, telemetry.

    The parent owns the whole admission layer (arrival draws, argmax
    placement over global free capacity, the departure heap) plus the
    fault consequences that touch it (crashed nodes lose their VMs,
    DOWN/quarantined nodes are routed around); the executor owns only
    physics stepping.  Everything the parent does is therefore
    trivially shard- and jobs-invariant.

    ``kill_worker_at`` is a supervision test hook: real SIGKILLs
    delivered to worker processes at given steps — the report must not
    change (deterministic replay absorbs them), which is exactly what
    ``benchmarks/bench_fleet_chaos.py`` enforces.
    """

    def __init__(self, config: FleetCampaignConfig, jobs: int = 1,
                 snapshot_dir=None,
                 snapshot_every_steps: Optional[int] = None,
                 mp_context=None,
                 worker_timeout_s: float = 30.0,
                 max_worker_restarts: int = 2,
                 checkpoint_every_steps: Optional[int] = 25,
                 kill_worker_at: Sequence[Tuple[int, int]] = ()) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        kill_worker_at = tuple(
            (int(step), int(worker)) for step, worker in kill_worker_at)
        if kill_worker_at and jobs == 1:
            raise ConfigurationError(
                "worker kill injection needs jobs >= 2 (the in-process "
                "executor has no workers)")
        self.config = config
        self.jobs = jobs
        if jobs == 1:
            state = build_fleet_state(config.fleet)
            self.executor = ShardStepper(
                config, state, config.build_chaos(keys=state.keys))
        else:
            self.executor = ProcessExecutor(
                config, jobs, mp_context=mp_context,
                worker_timeout_s=worker_timeout_s,
                max_worker_restarts=max_worker_restarts,
                checkpoint_every_steps=checkpoint_every_steps,
                kill_worker_at=kill_worker_at)
        self.chaos = self.executor.chaos
        self.bounds = shard_bounds(config.fleet.n_nodes, config.shards)
        self.store = (SnapshotStore(snapshot_dir)
                      if snapshot_dir is not None else None)
        self.snapshot_every_steps = snapshot_every_steps
        n = config.fleet.n_nodes
        self._arrival_key = arrival_counter_key(config.fleet.seed)
        self._used = np.zeros(n, dtype=np.int64)
        #: Min-heap of (departure_time_s, seq, node_index, vcpus).
        self._departures: List[Tuple[float, int, int, int]] = []
        self._arrival_seq = 0
        self._known_quarantined = np.zeros(n, dtype=bool)
        #: Fault-domain occupancy bookkeeping (rebuilt from the
        #: departure heap on resume, so it never rides in snapshots).
        self.topology = FaultDomainTopology.from_config(config.fleet)
        self._vms_on = np.zeros(n, dtype=np.int64)
        self._tenant_rack = np.zeros(
            (config.tenants, self.topology.n_racks), dtype=np.int64)
        self.step_index = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.vm_failures = 0
        self.sla_unreachable_steps = 0
        self.migrations = 0
        self.migrations_deferred = 0
        self.series: List[Dict[str, object]] = []

    # -- admission (parent-side, partition-invariant) ---------------------

    def _tenant_of(self, seq: int) -> int:
        """The VM's synthetic tenant — a pure function of its seq."""
        return seq % self.config.tenants

    def _occupy(self, seq: int, node: int, vcpus: int,
                sign: int) -> None:
        """Add (+1) or remove (-1) one VM's occupancy bookkeeping."""
        self._used[node] += sign * vcpus
        self._vms_on[node] += sign
        self._tenant_rack[self._tenant_of(seq),
                          self.topology.rack_of[node]] += sign

    def _rebuild_occupancy(self) -> None:
        """Re-derive per-node/per-rack occupancy from the heap."""
        self._vms_on[:] = 0
        self._tenant_rack[:] = 0
        for _when, seq, node, vcpus in self._departures:
            self._vms_on[node] += 1
            self._tenant_rack[self._tenant_of(seq),
                              self.topology.rack_of[node]] += 1

    def _terminate_departed(self, now_s: float) -> None:
        while self._departures and self._departures[0][0] <= now_s:
            _, seq, node, vcpus = heapq.heappop(self._departures)
            self._occupy(seq, node, vcpus, -1)
            self.completed += 1

    def _quarantine_mask(self) -> np.ndarray:
        """Quarantined nodes: live executor state plus resumed flags."""
        return self.executor.quarantined_mask() | self._known_quarantined

    def _fail_unavailable_vms(self, t: int) -> None:
        """Kill VMs on nodes that just crashed or got quarantined."""
        newly = self.executor.quarantined_mask() \
            & ~self._known_quarantined
        self._known_quarantined |= newly
        dead = newly
        if self.chaos is not None:
            dead = dead | self.chaos.crash_mask(t)
        if not dead.any():
            return
        survivors = []
        for entry in self._departures:
            if dead[entry[2]]:
                self._occupy(entry[1], entry[2], entry[3], -1)
                self.vm_failures += 1
            else:
                survivors.append(entry)
        if len(survivors) != len(self._departures):
            heapq.heapify(survivors)
            self._departures = survivors
        self._used[dead] = 0

    def _admit_arrivals(self, t: int) -> None:
        cfg = self.config
        step_s = cfg.fleet.step_s
        expected = cfg.arrivals_per_hour * step_s / 3600.0
        count = int(math.floor(expected))
        fraction = expected - count
        if fraction > 0 and float(counter_uniform(
                self._arrival_key, np.uint64(t),
                CH_ARRIVAL_COUNT)) < fraction:
            count += 1
        capacity = cfg.fleet.vcpus_per_node
        now_s = t * step_s
        unavailable = self._quarantine_mask()
        if self.chaos is not None:
            unavailable = unavailable | self.chaos.down_mask(t)
            partitioned = self.chaos.partition_mask(t)
            at_risk = self.chaos.at_risk_mask(t)
        else:
            partitioned = at_risk = None
        route_around = unavailable.any()
        defended = cfg.domain_defense and self.chaos is not None
        first = self._arrival_seq
        self._arrival_seq += count
        # The hash is elementwise, so one draw over the step's seq range
        # equals one scalar draw per VM.
        seqs = np.arange(first, first + count, dtype=np.uint64)
        size_draws = counter_uniform(self._arrival_key, seqs,
                                     CH_ARRIVAL_SIZE).tolist()
        life_draws = counter_uniform(self._arrival_key, seqs,
                                     CH_ARRIVAL_LIFETIME).tolist()
        for seq, size_draw, life_draw in zip(
                range(first, first + count), size_draws, life_draws):
            vcpus = min(cfg.max_vcpus, 1 + int(size_draw * cfg.max_vcpus))
            lifetime_s = -cfg.mean_lifetime_s * math.log1p(-life_draw)
            if defended:
                node = self._place_defended(
                    seq, vcpus, unavailable, partitioned, at_risk)
                if node is None:
                    self.rejected += 1
                    continue
            else:
                free = capacity - self._used
                if route_around:
                    free = np.where(unavailable, -1, free)
                node = int(np.argmax(free))
                if free[node] < vcpus:
                    self.rejected += 1
                    continue
                if partitioned is not None and partitioned[node]:
                    # A partitioned rack is an admission blackout: the
                    # topology-blind baseline picks it on raw capacity,
                    # the launch times out, the request bounces.
                    self.rejected += 1
                    continue
            self._occupy(seq, node, vcpus, +1)
            heapq.heappush(self._departures,
                           (now_s + lifetime_s, seq, node, vcpus))
            self.admitted += 1

    def _anti_affinity_score(self, seq: int, free: np.ndarray,
                             eligible: np.ndarray) -> np.ndarray:
        """Placement score: spread the tenant across racks, then fill.

        Fewest of this tenant's VMs on the node's rack dominates; free
        capacity breaks ties; ``argmax`` takes the lowest index on
        exact ties — all integer math, so the choice is deterministic
        in any partition.
        """
        capacity = self.config.fleet.vcpus_per_node
        penalty = self._tenant_rack[self._tenant_of(seq)][
            self.topology.rack_of]
        score = free - penalty * np.int64(capacity + 1)
        return np.where(eligible, score, np.int64(-(2 ** 62)))

    def _place_defended(self, seq: int, vcpus: int,
                        unavailable: np.ndarray,
                        partitioned: np.ndarray,
                        at_risk: np.ndarray) -> Optional[int]:
        """Domain-aware placement: route around blast radii, spread
        tenants across racks; None when nothing can host the VM."""
        capacity = self.config.fleet.vcpus_per_node
        free = capacity - self._used
        blocked = unavailable | partitioned
        eligible = (free >= vcpus) & ~blocked & ~at_risk
        if not eligible.any():
            # Every safe node is full: placing inside a blast radius
            # beats bouncing the request.
            eligible = (free >= vcpus) & ~blocked
            if not eligible.any():
                return None
        score = self._anti_affinity_score(seq, free, eligible)
        return int(np.argmax(score))

    def _evacuate_at_risk(self, t: int) -> None:
        """Defense: drain VMs off at-risk domains, with backpressure.

        VMs migrate in seq order (deterministic in any partition) to
        the anti-affinity winner among safe targets, capped at
        ``max_migrations_per_rack_step`` inbound per target rack per
        step so a browning-out rack cannot stampede the survivors —
        the rest defer to the next step (``migrations_deferred``).
        """
        chaos = self.chaos
        at_risk = chaos.at_risk_mask(t)
        if not at_risk.any():
            return
        unavailable = self._quarantine_mask() | chaos.down_mask(t)
        partitioned = chaos.partition_mask(t)
        blocked = unavailable | partitioned | at_risk
        movable = at_risk & ~unavailable & ~partitioned
        capacity = self.config.fleet.vcpus_per_node
        cap = self.config.max_migrations_per_rack_step
        inflow = np.zeros(self.topology.n_racks, dtype=np.int64)
        moved = False
        entries = sorted(self._departures, key=lambda e: e[1])
        relocated = []
        for when, seq, node, vcpus in entries:
            if not movable[node]:
                relocated.append((when, seq, node, vcpus))
                continue
            free = capacity - self._used
            rack_open = inflow[self.topology.rack_of] < cap
            eligible = (free >= vcpus) & ~blocked & rack_open
            if not eligible.any():
                self.migrations_deferred += 1
                relocated.append((when, seq, node, vcpus))
                continue
            score = self._anti_affinity_score(seq, free, eligible)
            target = int(np.argmax(score))
            self._occupy(seq, node, vcpus, -1)
            self._occupy(seq, target, vcpus, +1)
            inflow[self.topology.rack_of[target]] += 1
            self.migrations += 1
            moved = True
            relocated.append((when, seq, target, vcpus))
        if moved:
            heapq.heapify(relocated)
            self._departures = relocated

    def _account_sla(self, t: int) -> None:
        """Count unreachable VM-steps (outage or partition blackout)."""
        if self.chaos is None:
            return
        affected = (self.chaos.down_mask(t)
                    | self.chaos.partition_mask(t)
                    | self._quarantine_mask())
        if affected.any():
            self.sla_unreachable_steps += int(
                self._vms_on[affected].sum())

    # -- telemetry reduction ----------------------------------------------

    def _record_sample(self, t: int,
                       arrays: Dict[str, np.ndarray]) -> None:
        cfg = self.config.fleet
        n = cfg.n_nodes
        unavailable = self._quarantine_mask()
        if self.chaos is not None:
            unavailable = unavailable | self.chaos.down_mask(t)
            dropped = self.chaos.dropout_mask(t)
            partitioned = self.chaos.partition_mask(t)
        else:
            dropped = np.zeros(n, dtype=bool)
            partitioned = np.zeros(n, dtype=bool)
        observed = ~(dropped | unavailable | partitioned)
        power = arrays["power_w"]
        fleet_power = math.fsum(float(p) for p in power[observed])
        observed_n = int(np.count_nonzero(observed))
        total_used = int(self._used.sum())
        self.series.append({
            "step": t,
            "time_s": (t + 1) * cfg.step_s,
            "fleet_power_w": fleet_power,
            "mean_power_w": (fleet_power / observed_n
                             if observed_n else 0.0),
            "mean_util": total_used / (n * cfg.vcpus_per_node),
            "active_vcpus": total_used,
            "margins_adopted": int(np.count_nonzero(
                arrays["margin_on"])),
            "telemetry_observed": observed_n,
            "telemetry_dropped": int(np.count_nonzero(
                dropped & ~unavailable & ~partitioned)),
            "nodes_down": int(np.count_nonzero(unavailable)),
            "nodes_partitioned": int(np.count_nonzero(
                partitioned & ~unavailable)),
        })

    # -- snapshots ----------------------------------------------------------

    def take_snapshot(self) -> None:
        """Persist config + campaign dynamics + per-shard fleet state."""
        if self.store is None:
            raise PersistenceError(
                "campaign was built without a snapshot directory")
        payload = {
            "config": self.config.as_dict(),
            "campaign": {
                "step_index": self.step_index,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "vm_failures": self.vm_failures,
                "sla_unreachable_steps": self.sla_unreachable_steps,
                "migrations": self.migrations,
                "migrations_deferred": self.migrations_deferred,
                "arrival_seq": self._arrival_seq,
                "used": self._used.tolist(),
                "departures": sorted(
                    [list(entry) for entry in self._departures]),
                "series": list(self.series),
            },
            "fleet": {
                "n_nodes": self.config.fleet.n_nodes,
                "shards": shard_entries(self._shard_states()),
            },
        }
        self.store.save(self.step_index, payload)

    def _shard_states(self) -> List[Tuple[int, int, Dict[str, list]]]:
        """Per-shard ``(lo, hi, dynamics)`` for snapshot entries."""
        pieces = self.executor.arrays()
        return [(lo, hi, {name: pieces[i][name].tolist()
                          for name in DYNAMIC_NAMES})
                for i, (lo, hi) in enumerate(self.bounds)]

    def _load_snapshot(self, payload: Dict[str, object]) -> None:
        campaign = payload["campaign"]
        self.step_index = int(campaign["step_index"])  # type: ignore[index]
        self.admitted = int(campaign["admitted"])  # type: ignore[index]
        self.rejected = int(campaign["rejected"])  # type: ignore[index]
        self.completed = int(campaign["completed"])  # type: ignore[index]
        self.vm_failures = int(campaign.get("vm_failures", 0))  # type: ignore[union-attr]
        self.sla_unreachable_steps = int(
            campaign.get("sla_unreachable_steps", 0))  # type: ignore[union-attr]
        self.migrations = int(campaign.get("migrations", 0))  # type: ignore[union-attr]
        self.migrations_deferred = int(
            campaign.get("migrations_deferred", 0))  # type: ignore[union-attr]
        self._arrival_seq = int(campaign["arrival_seq"])  # type: ignore[index]
        self._used[:] = np.asarray(campaign["used"], dtype=np.int64)  # type: ignore[index]
        self._departures = [
            (float(when), int(seq), int(node), int(vcpus))
            for when, seq, node, vcpus in campaign["departures"]]  # type: ignore[index]
        heapq.heapify(self._departures)
        self._rebuild_occupancy()
        self.series = [dict(entry) for entry in campaign["series"]]  # type: ignore[index]
        fleet = payload["fleet"]
        n = int(fleet["n_nodes"])  # type: ignore[index, arg-type]
        if n != self.config.fleet.n_nodes:
            raise PersistenceError(
                f"snapshot is for {n} nodes, campaign has "
                f"{self.config.fleet.n_nodes}")
        arrays = {name: np.zeros(n, dtype=dtype)
                  for name, dtype in DYNAMIC_FIELDS}
        covered = np.zeros(n, dtype=bool)
        for lo, hi, state in verify_shard_entries(fleet["shards"]):  # type: ignore[index]
            if covered[lo:hi].any():
                raise PersistenceError(
                    f"snapshot shards overlap at [{lo}, {hi})")
            covered[lo:hi] = True
            for name, dtype in DYNAMIC_FIELDS:
                arrays[name][lo:hi] = np.asarray(state[name],
                                                 dtype=dtype)
        if not covered.all():
            raise PersistenceError(
                "snapshot shards do not cover the fleet")
        self.executor.load({
            i: {name: arrays[name][lo:hi].copy() for name in DYNAMIC_NAMES}
            for i, (lo, hi) in enumerate(self.bounds)})
        self._known_quarantined = arrays["quarantined"].astype(bool)

    def resume(self) -> bool:
        """Load the newest valid snapshot; False when starting fresh."""
        if self.store is None:
            raise PersistenceError(
                "campaign was built without a snapshot directory")
        loaded = self.store.load_newest()
        if loaded is None:
            return False
        _generation, payload = loaded
        saved = FleetCampaignConfig.from_dict(payload["config"])  # type: ignore[arg-type]
        ours = replace(self.config, shards=saved.shards,
                       stepper=saved.stepper)
        if saved != ours:
            raise PersistenceError(
                "snapshot belongs to a different campaign config")
        self._load_snapshot(payload)
        return True

    # -- the loop -----------------------------------------------------------

    def run(self, until_step: Optional[int] = None) -> None:
        """Advance to ``until_step`` (exclusive; default: completion)."""
        cfg = self.config
        n_steps = cfg.n_steps
        stop = n_steps if until_step is None \
            else min(until_step, n_steps)
        telemetry_every = cfg.telemetry_every_steps
        while self.step_index < stop:
            t = self.step_index
            self._terminate_departed(t * cfg.fleet.step_s)
            self._fail_unavailable_vms(t)
            if cfg.domain_defense and self.chaos is not None:
                self._evacuate_at_risk(t)
            self._admit_arrivals(t)
            self._account_sla(t)
            want_sample = ((t + 1) % telemetry_every == 0
                           or t == n_steps - 1)
            arrays = self.executor.step(t, self._used, want_sample)
            if arrays is not None:
                self._record_sample(t, arrays)
            self.step_index = t + 1
            if (self.store is not None
                    and self.snapshot_every_steps is not None
                    and self.step_index % self.snapshot_every_steps
                    == 0):
                self.take_snapshot()

    def _quarantine_block(self) -> Optional[Dict[str, object]]:
        """Report block naming quarantined nodes; None when clean.

        Only emitted when quarantine actually happened, so a campaign
        whose injected worker kills were absorbed by replay stays
        byte-identical to a clean run.
        """
        mask = self._quarantine_mask()
        if not mask.any():
            return None
        flat = np.flatnonzero(mask)
        ranges: List[List[int]] = []
        for node in flat:
            node = int(node)
            if ranges and ranges[-1][1] == node:
                ranges[-1][1] = node + 1
            else:
                ranges.append([node, node + 1])
        return {
            "nodes": int(mask.sum()),
            "node_ranges": ranges,
            "worker_restarts": self.executor.worker_restarts_total,
        }

    def report(self) -> Dict[str, object]:
        """The canonical campaign report (shards/jobs/stepper
        invariant, and invariant to replayed worker deaths)."""
        final = {name: array.tolist() for name, array in concat_shards(
            self.executor.arrays(), DYNAMIC_NAMES,
            self.config.fleet.n_nodes).items()}
        last_step = self.step_index - 1
        down_final = (
            (np.asarray(final["down_until_step"], dtype=np.int64)
             > last_step)
            | np.asarray(final["quarantined"], dtype=bool))
        totals = {
            "steps": self.step_index,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "vm_failures": self.vm_failures,
            "active_vcpus_final": int(self._used.sum()),
            "energy_j": math.fsum(float(e) for e in final["energy_j"]),  # type: ignore[union-attr]
            "violations": int(sum(final["violations_total"])),  # type: ignore[arg-type]
            "retention_errors": int(sum(
                final["retention_errors_total"])),  # type: ignore[arg-type]
            "demotions": int(sum(final["demotions"])),  # type: ignore[arg-type]
            "adoptions": int(sum(final["adoptions"])),  # type: ignore[arg-type]
            "crashes": int(sum(final["crashes_total"])),  # type: ignore[arg-type]
            "margins_adopted_final": int(sum(final["margin_on"])),  # type: ignore[arg-type]
            "nodes_down_final": int(np.count_nonzero(down_final)),
            "domain_demotions": int(sum(final["domain_demotions"])),  # type: ignore[arg-type]
            "migrations": self.migrations,
            "migrations_deferred": self.migrations_deferred,
            # An SLA violation is a promise broken: a failed VM, an
            # unreachable VM-step, or a bounced admission.
            "sla_violations": (self.vm_failures
                               + self.sla_unreachable_steps
                               + self.rejected),
            "availability": (
                self.completed / (self.completed + self.vm_failures)
                if self.completed + self.vm_failures else 1.0),
        }
        if self.config.fleet.tiered:
            # Per-tier block only for tiered fleets — untiered reports
            # keep their exact legacy shape (and bytes).
            totals["tiers"] = {
                "refresh_energy_j": {
                    "strong": math.fsum(
                        float(e) for e in final["refresh_energy_strong_j"]),  # type: ignore[union-attr]
                    "normal": math.fsum(
                        float(e) for e in final["refresh_energy_normal_j"]),  # type: ignore[union-attr]
                    "relaxed": math.fsum(
                        float(e) for e in final["refresh_energy_relaxed_j"]),  # type: ignore[union-attr]
                },
                "retention_errors": {
                    "normal": int(sum(final["retention_errors_normal"])),  # type: ignore[arg-type]
                    "relaxed": int(sum(final["retention_errors_relaxed"])),  # type: ignore[arg-type]
                },
            }
        return fleet_campaign_report(
            self.config.as_report_dict(), self.config.fleet,
            totals, self.series, quarantine=self._quarantine_block(),
            fault_domains=self._fault_domains_block())

    def _fault_domains_block(self) -> Optional[Dict[str, object]]:
        """Report block describing the correlated plan; None without
        one, so uncorrelated campaigns keep their report shape."""
        if self.chaos is None:
            return None
        correlated = [spec for spec in self.chaos.plan
                      if spec.kind in CORRELATED_FAULT_KINDS]
        if not correlated:
            return None
        by_kind: Dict[str, int] = {}
        for spec in correlated:
            by_kind[spec.kind.value] = by_kind.get(spec.kind.value, 0) + 1
        return {
            "specs": len(correlated),
            "by_kind": by_kind,
            "topology": self.topology.as_dict(),
            "defense": self.config.domain_defense,
        }

    def close(self) -> None:
        """Tear down the executor (a no-op for the in-process one)."""
        self.executor.close()


def run_fleet_campaign(config: FleetCampaignConfig, jobs: int = 1,
                       snapshot_dir=None,
                       snapshot_every_steps: Optional[int] = None,
                       resume: bool = False,
                       mp_context=None,
                       worker_timeout_s: float = 30.0,
                       max_worker_restarts: int = 2,
                       checkpoint_every_steps: Optional[int] = 25,
                       kill_worker_at: Sequence[Tuple[int, int]] = (),
                       ) -> Dict[str, object]:
    """Run one fleet campaign to completion and return its report."""
    campaign = FleetCampaign(
        config, jobs=jobs, snapshot_dir=snapshot_dir,
        snapshot_every_steps=snapshot_every_steps,
        mp_context=mp_context, worker_timeout_s=worker_timeout_s,
        max_worker_restarts=max_worker_restarts,
        checkpoint_every_steps=checkpoint_every_steps,
        kill_worker_at=kill_worker_at)
    try:
        if resume:
            campaign.resume()
        campaign.run()
        return campaign.report()
    finally:
        campaign.close()
