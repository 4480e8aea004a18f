"""The hypervisor's batched DRAM-error draw against the per-error loop.

``ReferenceHypervisor`` keeps the original engine: one
``error_hits_critical`` draw and one ledger record per retention error.
The batched path must leave every counter, every fault total, the ledger
and the RNG exactly where the reference does.
"""

import pytest

from repro.core.clock import SimClock
from repro.core.events import CrashEvent
from repro.hardware import build_uniserver_node
from repro.hardware.faults import FaultClass, FaultOrigin
from repro.hypervisor import Hypervisor, HypervisorConfig, make_vm_fleet
from repro.workloads import ldbc_workload


class ReferenceHypervisor(Hypervisor):
    """The per-error DRAM loop the batched draw replaced."""

    def _handle_dram_errors(self, dt_s):
        for domain in self.platform.memory.relaxed_domains():
            rate = self._domain_error_rate_per_s(domain)
            n_errors = int(self._rng.poisson(rate * dt_s))
            for _ in range(n_errors):
                if self.placement.error_hits_critical(domain.name, self._rng):
                    self._crashed = True
                    self.stats.host_crashes += 1
                    self._record_fault(FaultClass.CRASH, FaultOrigin.DRAM,
                                       domain.name, "critical state hit")
                    self.bus.publish(CrashEvent(
                        timestamp=self.clock.now, source="hypervisor",
                        component=domain.name,
                        operating_point=(
                            f"refresh {domain.refresh_interval_s:.2f} s"),
                    ))
                    return
                self.stats.vm_sdc_events += 1
                self._record_fault(
                    FaultClass.SILENT_DATA_CORRUPTION, FaultOrigin.DRAM,
                    domain.name, "guest page",
                )


def _relaxed(cls, interval_s, use_reliable, seed, n_vms=3):
    platform = build_uniserver_node()
    hv = cls(platform, SimClock(),
             config=HypervisorConfig(use_reliable_domain=use_reliable),
             seed=seed)
    hv.boot()
    platform.memory.relax_all(interval_s, keep_reliable_nominal=use_reliable)
    for vm in make_vm_fleet(ldbc_workload(scale_factor=8.0), n_vms):
        hv.create_vm(vm)
    return hv


def _hand_placed(cls, seed):
    """Kernel state sharing one relaxed domain with a large guest.

    The critical share is about 1/120, so a crash almost surely follows
    a run of benign hits within the same tick.
    """
    platform = build_uniserver_node()
    hv = cls(platform, SimClock(),
             config=HypervisorConfig(use_reliable_domain=False), seed=seed)
    hv.boot()
    platform.memory.domain("channel1").set_refresh_interval(20.0)
    hv.placement.load_state_dict({"allocations": [
        ["hypervisor", 50.0, "channel1", True],
        ["guest", 6000.0, "channel1", False],
    ]})
    return hv


def _run(hv, ticks):
    for _ in range(ticks):
        if hv.crashed:
            break
        hv.tick()
        hv.clock.advance_by(hv.config.tick_s)
    return hv


def _assert_same(batched, reference):
    assert batched.stats == reference.stats
    for fault_class in FaultClass:
        assert (batched.platform.faults.count(fault_class=fault_class)
                == reference.platform.faults.count(fault_class=fault_class))
    assert len(batched.platform.faults) == len(reference.platform.faults)
    assert batched.platform.faults.records == reference.platform.faults.records
    assert batched.metrics.snapshot() == reference.metrics.snapshot()
    assert (batched._rng.bit_generator.state
            == reference._rng.bit_generator.state)


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_reliable_domain_on_matches_reference(seed):
    batched = _run(_relaxed(Hypervisor, 10.0, True, seed), 8)
    reference = _run(_relaxed(ReferenceHypervisor, 10.0, True, seed), 8)
    assert batched.stats.vm_sdc_events > 0
    _assert_same(batched, reference)


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_reliable_domain_off_matches_reference(seed):
    batched = _run(_relaxed(Hypervisor, 5.0, False, seed), 40)
    reference = _run(_relaxed(ReferenceHypervisor, 5.0, False, seed), 40)
    assert batched.stats.host_crashes == 1
    assert batched.stats.vm_sdc_events > 0
    _assert_same(batched, reference)


@pytest.mark.parametrize("seed", [0, 5])
def test_crash_after_benign_prefix_matches_reference(seed):
    batched = _run(_hand_placed(Hypervisor, seed), 20)
    reference = _run(_hand_placed(ReferenceHypervisor, seed), 20)
    assert batched.crashed
    # The crash tick also logged guest corruptions before the hit (k > 0),
    # so the state-restore branch ran.
    records = batched.platform.faults.records
    crash, prefix = records[-1], records[-2]
    assert crash.fault_class is FaultClass.CRASH
    assert prefix.fault_class is FaultClass.SILENT_DATA_CORRUPTION
    assert prefix.timestamp == crash.timestamp
    assert prefix.count > 1
    _assert_same(batched, reference)
