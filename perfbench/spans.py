"""In-memory span recorder, hooked around public ``repro`` calls.

The benchmark never edits the program: a traced child replaces a few
methods on public classes with wrappers that time each call with
``perf_counter_ns`` and keep a stack of open spans.  A span's self
time is its duration minus the time its child spans cover.  Spans are
folded into per-name totals as they close (the DRAM workload makes
hundreds of thousands of ledger writes, too many to keep one by one).
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The outermost span of one simulated step.
STEP = "campaign.step"


def _ledger_scan(args) -> Dict[str, int]:
    """Records a ledger read walks: the ledger's length at the call."""
    return {"hardware.ledger_records_scanned": len(args[0])}


#: (module, class, method, span name, counter hook or None).  A hook
#: receives the call's arguments and returns counters to add.
LAYER_HOOKS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("repro.daemons", "StressLog", "characterize",
     "daemons.stresslog_characterize", None),
    ("repro.daemons", "HealthLog", "snapshot",
     "daemons.healthlog_snapshot", None),
    ("repro.hardware", "CoreModel", "crash_probability",
     "hardware.core_model", None),
    ("repro.hardware", "CoreModel", "crash_voltage_v",
     "hardware.core_model", None),
    ("repro.hardware", "CacheModel", "run", "hardware.cache_power", None),
    ("repro.hardware", "CorePowerModel", "total_power_w",
     "hardware.cache_power", None),
    ("repro.hardware", "FaultLedger", "count", "hardware.ledger_read",
     _ledger_scan),
    ("repro.hardware", "FaultLedger", "counts_by_class",
     "hardware.ledger_read", _ledger_scan),
    ("repro.hardware", "FaultLedger", "components_above_threshold",
     "hardware.ledger_read", _ledger_scan),
    ("repro.hardware", "FaultLedger", "record", "hardware.ledger_write",
     None),
    ("repro.eop", "EOPGovernor", "step", "eop.governor_step", None),
    ("repro.hypervisor", "PlacementPolicy", "error_hits_critical",
     "hypervisor.error_hits_critical", None),
    ("repro.hypervisor", "Hypervisor", "tick", "hypervisor.tick", None),
    ("repro.cloudmgr", "CloudController", "step", "cloudmgr.controller",
     None),
    ("repro.cloudmgr", "ComputeNode", "step", "cloudmgr.node_step", None),
    ("repro.resilience", "ChaosEngine", "apply", "resilience.chaos_apply",
     None),
    ("repro.fleet", "FleetCampaignConfig", "fault_plan", "fleet.plan", None),
    ("repro.fleet", "FleetCampaignConfig", "correlated_plan", "fleet.plan",
     None),
    ("repro.fleet", "FleetCampaignConfig", "build_chaos",
     "fleet.chaos_compile", None),
    ("repro.fleet", "FleetCampaign", "report", "fleet.report", None),
]


class SpanRecorder:
    """Open-span stack plus per-name [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self._stack: List[List[int]] = []
        self.totals: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        #: Self time of every span nested under a ``STEP`` span.
        self.step_nested_self_ns = 0
        self._in_step = False

    def span(self, name: str, func: Callable, *args, **kwargs):
        """Call ``func`` inside a span named ``name``."""
        stack = self._stack
        if not stack:
            self._in_step = name == STEP
        frame = [0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
                if self._in_step:
                    self.step_nested_self_ns += duration - frame[0]

    def wrap(self, owner: object, attr: str, name: str,
             counter: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original."""
        original = getattr(owner, attr)
        span = self.span
        counters = self.counters

        def spanned(*args, **kwargs):
            if counter is not None:
                for key, amount in counter(args).items():
                    counters[key] = counters.get(key, 0) + amount
            return span(name, original, *args, **kwargs)

        spanned.__wrapped__ = original
        setattr(owner, attr, spanned)

    def install_layer_hooks(self) -> None:
        for module, cls, attr, name, counter in LAYER_HOOKS:
            owner = getattr(importlib.import_module(module), cls)
            self.wrap(owner, attr, name, counter)

    def as_dict(self) -> Dict[str, object]:
        """Everything recorded, for the trace file written at exit."""
        return {
            "spans": {name: {"calls": calls, "total_s": total / 1e9,
                             "self_s": own / 1e9}
                      for name, (calls, total, own)
                      in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "step_nested_self_s": self.step_nested_self_ns / 1e9,
        }
