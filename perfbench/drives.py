"""The four campaign workloads, driven one simulated step at a time.

Each workload is a closed loop: the next simulated step starts only
when the previous one has returned.  A workload turns the benchmark's
``--seed`` into a plain config dict (the only thing the program sees),
builds its world through public ``repro.*`` calls, steps it, reduces
it to a canonical report, and checks that report.  In a traced run a
build also receives the span recorder, for hooks that only exist once
the world does (the fleet's executor).  ``reference`` runs
the repository's own entry point on the same config; its digest must
equal the step-by-step drive's, which proves the benchmark times the
real program.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

#: VM horizon of the EOP campaign (``repro.eop.campaign`` uses the
#: same value so that no campaign VM completes).
EOP_VM_DURATION_CYCLES = 1e12


def digest_of(text: str) -> str:
    """SHA-256 of an already canonical JSON string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Drive:
    """One built world: ``n_steps`` closed-loop steps, then a report.

    ``facts`` returns what the workload has to say at the end of a run
    besides its report: ``ledger_records_final`` always, and
    ``admitted``/``arrivals`` where a controller admits VMs.
    """

    def __init__(self, n_steps: int, node_seconds: float,
                 step: Callable[[int], None],
                 report: Callable[[], Dict[str, object]],
                 check: Callable[[Dict[str, object]], List[str]],
                 facts: Callable[[], Dict[str, int]],
                 close: Callable[[], None] = lambda: None) -> None:
        self.n_steps = n_steps
        self.node_seconds = node_seconds
        self.step = step
        self.report = report
        self.check = check
        self.facts = facts
        self.close = close


def _records(ledgers) -> int:
    return sum(len(ledger) for ledger in ledgers)


# -- rack-chaos ----------------------------------------------------------------

RACK_NODES = 8
RACK_DURATION_S = 3600.0
RACK_STEP_S = 60.0
RACK_ARRIVALS_PER_HOUR = 48.0
RACK_FAULTS_PER_HOUR = 6.0
RACK_INTENSITY = 0.6
#: Seed of the rack's hardware, arrival trace and control plane.  It is
#: fixed so that every benchmark seed replays the same rack under a
#: different chaos storm: with all of them drawn from one seed, the VM
#: count (hence host time) of an hour varied more than 2x across seeds.
RACK_SCENARIO_SEED = 0


def rack_config(seed: int) -> Dict[str, object]:
    return {"n_nodes": RACK_NODES, "duration_s": RACK_DURATION_S,
            "seed": RACK_SCENARIO_SEED, "plan_seed": seed,
            "rate_per_hour": RACK_FAULTS_PER_HOUR,
            "intensity": RACK_INTENSITY,
            "base_rate_per_hour": RACK_ARRIVALS_PER_HOUR,
            "step_s": RACK_STEP_S}


def _rack_plan(config: Dict[str, object]):
    from repro.resilience import FaultPlan

    return FaultPlan.random(
        [f"node{i}" for i in range(int(config["n_nodes"]))],
        float(config["duration_s"]),
        rate_per_hour=float(config["rate_per_hour"]),
        seed=int(config["plan_seed"]), intensity=float(config["intensity"]))


def _rack_report(cloud, stats) -> Dict[str, object]:
    from dataclasses import asdict
    return {"cloud": cloud.state_dict(), "stats": asdict(stats)}


def rack_build(config: Dict[str, object], recorder=None) -> Drive:
    from repro.cloudmgr import (CloudController, TraceDrivenSimulation,
                                build_rack)
    from repro.core import SimClock
    from repro.persistence import StateAuditor
    from repro.resilience import ChaosEngine, DegradationConfig
    from repro.workloads import TraceConfig, TraceGenerator

    n, duration, seed = (int(config["n_nodes"]),
                         float(config["duration_s"]), int(config["seed"]))
    clock = SimClock()
    nodes = build_rack(n, clock=clock, seed=seed)
    cloud = CloudController(clock, nodes, degradation=DegradationConfig.on(),
                            chaos=ChaosEngine(_rack_plan(config)),
                            control_seed=seed)
    events = TraceGenerator(
        TraceConfig(base_rate_per_hour=float(config["base_rate_per_hour"])),
        seed=seed).generate(duration)
    sim = TraceDrivenSimulation(cloud, events, step_s=float(config["step_s"]))
    n_steps = 0
    now = 0.0
    while now < duration:
        now += sim.step_s
        n_steps += 1

    def check(report: Dict[str, object]) -> List[str]:
        problems = StateAuditor(strict=False).audit(cloud, "end of run")
        if sim.stats.admitted == 0 or not cloud.chaos.injections:
            problems.append("no VM was admitted or no fault was injected")
        return problems

    def facts() -> Dict[str, int]:
        return {"admitted": sim.stats.admitted,
                "arrivals": sim.stats.arrivals,
                "ledger_records_final": _records(
                    ledger for node in nodes for ledger
                    in (node.platform.faults, node.healthlog.ledger))}

    return Drive(n_steps, n * duration, lambda i: sim.step_once(),
                 lambda: _rack_report(cloud, sim.stats), check, facts)


def rack_reference(config: Dict[str, object]) -> Dict[str, object]:
    from repro.resilience import DegradationConfig, run_chaos_campaign

    result = run_chaos_campaign(
        n_nodes=int(config["n_nodes"]),
        duration_s=float(config["duration_s"]), seed=int(config["seed"]),
        plan=_rack_plan(config), degradation=DegradationConfig.on(),
        base_rate_per_hour=float(config["base_rate_per_hour"]),
        step_s=float(config["step_s"]))
    return _rack_report(result.experiment.cloud, result.experiment.stats)


# -- eop-storm -------------------------------------------------------------------

EOP_DURATION_S = 3600.0
EOP_STEP_S = 30.0
EOP_STORM_COMPONENTS = ("core2", "channel2")


def eop_config(seed: int) -> Dict[str, object]:
    return {"duration_s": EOP_DURATION_S, "step_s": EOP_STEP_S,
            "seed": seed, "policy": "adopt-within-budget", "n_vms": 2,
            "injections": [
                {"component": component, "start_s": 0.0,
                 "duration_s": EOP_DURATION_S, "rate_per_s": 1.0}
                for component in EOP_STORM_COMPONENTS]}


def _eop_campaign_config(config: Dict[str, object]):
    from repro.eop import EOPCampaignConfig, ErrorInjection

    fields = dict(config)
    fields["injections"] = tuple(
        ErrorInjection.from_dict(i) for i in config["injections"])
    return EOPCampaignConfig(**fields)


def eop_build(config: Dict[str, object], recorder=None) -> Drive:
    from repro.cloudmgr import ComputeNode
    from repro.core import CorrectableErrorEvent, NodeRuntime, SimClock
    from repro.core.clock import step_count
    from repro.core.events import EOPTransitionEvent
    from repro.hypervisor import make_vm_fleet
    from repro.workloads import spec_workload

    cfg = _eop_campaign_config(config)
    clock = SimClock()
    runtime = NodeRuntime(name="eopnode0", clock=clock, seed=cfg.seed)
    node = ComputeNode("eopnode0", runtime=runtime, characterize=True,
                       eop_policy=cfg.build_policy())
    for vm in make_vm_fleet(
            spec_workload("hmmer", duration_cycles=EOP_VM_DURATION_CYCLES),
            cfg.n_vms):
        node.node.launch_vm(vm)
    transitions: List[Dict[str, object]] = []

    def on_transition(event) -> None:
        transitions.append({
            "timestamp": event.timestamp, "component": event.component,
            "from_state": event.from_state, "to_state": event.to_state,
            "reason": event.reason})

    node.bus.subscribe(EOPTransitionEvent, on_transition)

    def step(index: int) -> None:
        now = clock.now
        for injection in cfg.injections:
            burst = (injection.errors_before(now + cfg.step_s)
                     - injection.errors_before(now))
            for _ in range(burst):
                node.bus.publish(CorrectableErrorEvent(
                    timestamp=now, source="eop-injector",
                    component=injection.component,
                    detail="injected error storm"))
        node.step(cfg.step_s)
        clock.advance_by(cfg.step_s)

    def report() -> Dict[str, object]:
        return {"clock": clock.state_dict(), "node": node.state_dict(),
                "transitions": transitions}

    def check(rep: Dict[str, object]) -> List[str]:
        problems = []
        demoted = {str(t["component"]) for t in transitions
                   if t["to_state"] in ("demoted", "quarantined")}
        for component in EOP_STORM_COMPONENTS:
            if component not in demoted:
                problems.append(f"{component} was never demoted")
        saving = node.node.energy_report().saving_fraction
        if not saving > 0:
            problems.append(f"energy saving {saving} is not above 0")
        return problems

    return Drive(step_count(cfg.duration_s, cfg.step_s), cfg.duration_s,
                 step, report, check,
                 lambda: {"ledger_records_final": _records(
                     (node.platform.faults, node.healthlog.ledger))})


def eop_reference(config: Dict[str, object]) -> Dict[str, object]:
    from repro.eop import run_eop_campaign

    result = run_eop_campaign(_eop_campaign_config(config),
                              snapshot_at_s=float(config["duration_s"]))
    return {"clock": result.snapshot["clock"],
            "node": result.snapshot["node"],
            "transitions": result.transitions}


# -- dram-relax ------------------------------------------------------------------

DRAM_TICKS = 60
DRAM_REFRESH_S = 20.0
DRAM_VMS = 3
DRAM_SCALE_FACTOR = 8.0


def dram_config(seed: int) -> Dict[str, object]:
    return {"seed": seed, "ticks": DRAM_TICKS, "refresh_s": DRAM_REFRESH_S,
            "n_vms": DRAM_VMS, "scale_factor": DRAM_SCALE_FACTOR}


def _dram_world(config: Dict[str, object]):
    """The reliable-domain world of ``examples/dram_relaxation.py``."""
    from repro.core import SimClock
    from repro.hardware import PlatformConfig, build_uniserver_node
    from repro.hypervisor import Hypervisor, HypervisorConfig, make_vm_fleet
    from repro.workloads import ldbc_workload

    seed = int(config["seed"])
    clock = SimClock()
    platform = build_uniserver_node(PlatformConfig(chip_seed=seed))
    hypervisor = Hypervisor(
        platform, clock, config=HypervisorConfig(use_reliable_domain=True),
        seed=seed)
    hypervisor.boot()
    platform.memory.relax_all(float(config["refresh_s"]),
                              keep_reliable_nominal=True)
    for vm in make_vm_fleet(
            ldbc_workload(scale_factor=float(config["scale_factor"])),
            int(config["n_vms"])):
        hypervisor.create_vm(vm)
    return clock, platform, hypervisor


def _dram_report(platform, hypervisor) -> Dict[str, object]:
    from dataclasses import asdict
    return {"platform": platform.state_dict(),
            "hypervisor": hypervisor.state_dict(),
            "stats": asdict(hypervisor.stats)}


def dram_build(config: Dict[str, object], recorder=None) -> Drive:
    clock, platform, hypervisor = _dram_world(config)

    def step(index: int) -> None:
        if not hypervisor.crashed:
            hypervisor.tick()
            clock.advance_by(1.0)

    def check(report: Dict[str, object]) -> List[str]:
        problems = []
        if hypervisor.stats.vm_sdc_events <= 0:
            problems.append("no guest corruption was masked")
        if hypervisor.stats.host_crashes != 0:
            problems.append(
                f"{hypervisor.stats.host_crashes} host crash(es) with the "
                "reliable domain on")
        return problems

    return Drive(int(config["ticks"]), float(config["ticks"]), step,
                 lambda: _dram_report(platform, hypervisor), check,
                 lambda: {"ledger_records_final": len(platform.faults)})


def dram_reference(config: Dict[str, object]) -> Dict[str, object]:
    """The loop of ``reliable_domain_story`` in
    ``examples/dram_relaxation.py`` with the reliable domain on, copied
    call by call rather than through ``_dram_world``, so that a slip in
    the drive's world build cannot hide from both sides.  The example
    itself runs 300 ticks at 40 s refresh with hypervisor seed 3 and the
    default chip; here seed, refresh and tick count come from the
    config."""
    from repro.core.clock import SimClock
    from repro.hardware import PlatformConfig, build_uniserver_node
    from repro.hypervisor import Hypervisor, HypervisorConfig, make_vm_fleet
    from repro.workloads import ldbc_workload

    clock = SimClock()
    platform = build_uniserver_node(
        PlatformConfig(chip_seed=int(config["seed"])))
    hypervisor = Hypervisor(
        platform, clock,
        config=HypervisorConfig(use_reliable_domain=True),
        seed=int(config["seed"]),
    )
    hypervisor.boot()
    platform.memory.relax_all(float(config["refresh_s"]),
                              keep_reliable_nominal=True)
    for vm in make_vm_fleet(
            ldbc_workload(scale_factor=float(config["scale_factor"])),
            int(config["n_vms"])):
        hypervisor.create_vm(vm)
    for _ in range(int(config["ticks"])):
        if hypervisor.crashed:
            break
        hypervisor.tick()
        clock.advance_by(1.0)
    return _dram_report(platform, hypervisor)


# -- fleet-chaos -----------------------------------------------------------------

FLEET_NODES = 4000
FLEET_DURATION_S = 1800.0
FLEET_ARRIVALS_PER_HOUR = 3000.0
FLEET_SHARDS = 2
FLEET_JOBS = 2


def fleet_config(seed: int) -> Dict[str, object]:
    return {"fleet": {"n_nodes": FLEET_NODES, "seed": seed},
            "duration_s": FLEET_DURATION_S,
            "arrivals_per_hour": FLEET_ARRIVALS_PER_HOUR,
            "shards": FLEET_SHARDS, "chaos_seed": seed + 1,
            "correlated_seed": seed + 2, "domain_defense": True}


def _fleet_campaign_config(config: Dict[str, object]):
    from repro.fleet import FleetCampaignConfig, FleetConfig

    fields = dict(config)
    fields["fleet"] = FleetConfig(**config["fleet"])
    return FleetCampaignConfig(**fields)


def fleet_build(config: Dict[str, object], recorder=None) -> Drive:
    from repro.fleet import FleetCampaign

    cfg = _fleet_campaign_config(config)
    campaign = FleetCampaign(cfg, jobs=FLEET_JOBS)
    if recorder is not None:
        # The executor's per-step exchange: kernel, barrier and IPC as
        # the parent sees them.
        for attr in ("step", "step_and_sample"):
            if hasattr(campaign.executor, attr):
                recorder.wrap(campaign.executor, attr, "fleet.exchange")

    def check(report: Dict[str, object]) -> List[str]:
        totals = report["totals"]
        resident = (totals["admitted"] - totals["completed"]
                    - totals["vm_failures"])
        vcpus = totals["active_vcpus_final"]
        problems = []
        # Every VM holds 1..max_vcpus vCPUs, so the VMs still resident
        # bound the vCPUs still in use from both sides.
        if not (-(-vcpus // cfg.max_vcpus) <= resident <= vcpus):
            problems.append(
                f"VMs not conserved: admitted {totals['admitted']}, "
                f"completed {totals['completed']}, failed "
                f"{totals['vm_failures']}, {vcpus} vCPUs resident")
        if totals["steps"] != cfg.n_steps:
            problems.append(f"ran {totals['steps']} of {cfg.n_steps} steps")
        if totals["admitted"] == 0 or totals["crashes"] == 0:
            problems.append("campaign admitted nothing or saw no chaos")
        return problems

    return Drive(cfg.n_steps, cfg.fleet.n_nodes * cfg.duration_s,
                 lambda i: campaign.run(until_step=i + 1),
                 campaign.report, check,
                 lambda: {"admitted": campaign.admitted,
                          "arrivals": campaign.admitted + campaign.rejected,
                          "ledger_records_final": 0},
                 close=campaign.close)


def fleet_reference(config: Dict[str, object]) -> Dict[str, object]:
    from repro.fleet import run_fleet_campaign

    return run_fleet_campaign(_fleet_campaign_config(config),
                              jobs=FLEET_JOBS)


#: name -> (config from seed, step-by-step drive, repo entry point,
#: least share of the step time the named layer spans must cover in a
#: traced run).  The floors sit about 0.15 below the shares measured at
#: the benchmark's introduction (rack 0.87, eop 0.91, dram 0.9995,
#: fleet 0.75-0.78, seeds 0, 2 and 7919).
WORKLOADS = {
    "rack-chaos": (rack_config, rack_build, rack_reference, 0.70),
    "eop-storm": (eop_config, eop_build, eop_reference, 0.75),
    "dram-relax": (dram_config, dram_build, dram_reference, 0.85),
    "fleet-chaos": (fleet_config, fleet_build, fleet_reference, 0.60),
}


def canonical(report: Dict[str, object]) -> str:
    """The program's own canonical JSON form of a report."""
    from repro.persistence import canonical_json
    return canonical_json(report)
