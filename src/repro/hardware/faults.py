"""Fault taxonomy shared by the hardware models and the daemons.

The HealthLog records errors "(correctable or uncorrectable)"; the
hypervisor fault-injection campaign of Figure 4 injects Silent Data
Corruptions.  This module defines the shared fault record that every layer
exchanges, plus counters used to build HealthLog information vectors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import ConfigurationError


class FaultClass(Enum):
    """How a fault manifests to the system."""

    CORRECTABLE = "correctable"           # detected and corrected (e.g. SECDED)
    UNCORRECTABLE = "uncorrectable"       # detected, not correctable
    SILENT_DATA_CORRUPTION = "sdc"        # escaped detection entirely
    CRASH = "crash"                       # machine/component became unresponsive


class FaultOrigin(Enum):
    """Which physical component produced the fault."""

    CPU_CORE = "cpu_core"
    CACHE = "cache"
    DRAM = "dram"
    INTERCONNECT = "interconnect"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FaultRecord:
    """One observed fault event, as logged by the HealthLog.

    ``operating_point`` is the V-F-R description active when the fault hit;
    the StressLog and Predictor correlate faults with it.  ``count`` is the
    event's multiplicity: ``count`` identical faults at the same instant
    (e.g. a tick's retention errors in one domain) are one record.
    """

    timestamp: float
    fault_class: FaultClass
    origin: FaultOrigin
    component: str
    operating_point: str = ""
    detail: str = ""
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("a fault record counts at least 1 fault")

    def is_fatal(self) -> bool:
        """Whether this fault terminated execution."""
        return self.fault_class is FaultClass.CRASH

    def same_event(self, other: "FaultRecord") -> bool:
        """Whether ``other`` differs from this record only in ``count``."""
        return (self.timestamp == other.timestamp
                and self.fault_class is other.fault_class
                and self.origin is other.origin
                and self.component == other.component
                and self.operating_point == other.operating_point
                and self.detail == other.detail)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots (``count`` only when not 1)."""
        state: Dict[str, object] = {
            "timestamp": self.timestamp,
            "fault_class": self.fault_class.value,
            "origin": self.origin.value,
            "component": self.component,
            "operating_point": self.operating_point,
            "detail": self.detail,
        }
        if self.count != 1:
            state["count"] = self.count
        return state

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FaultRecord":
        """Rebuild a record saved by :meth:`as_dict`."""
        return FaultRecord(
            timestamp=float(state["timestamp"]),  # type: ignore[arg-type]
            fault_class=FaultClass(state["fault_class"]),
            origin=FaultOrigin(state["origin"]),
            component=str(state["component"]),
            operating_point=str(state["operating_point"]),
            detail=str(state["detail"]),
            count=int(state.get("count", 1)),  # type: ignore[arg-type]
        )


#: Index key: (fault class or None for any, component or None for any).
_Key = Tuple[Optional[FaultClass], Optional[str]]


class FaultLedger:
    """Accumulates fault records and summarises them per component.

    This is the bookkeeping behind the HealthLog's "number of errors rises
    above a certain threshold → trigger a new stress-test cycle" rule
    (Section 3).

    Records are counted: a record equal to the newest one on everything
    but ``count`` is merged into it, so a burst of identical faults costs
    one record.  Queries read an index instead of scanning: for every
    (class or any, component or any) key it keeps the distinct timestamps
    and the running fault total up to each, so a windowed count is one
    bisect.  Records normally arrive in time order; a record older than
    the newest is inserted at its sorted place (after records with the
    same timestamp) and the index is rebuilt.
    """

    def __init__(self) -> None:
        #: The first record of each merged run, and the run's fault total
        #: (kept apart so that a merge is an integer add, not a new record).
        self._records: List[FaultRecord] = []
        self._counts: List[int] = []
        self._index: Dict[_Key, Tuple[List[float], List[int]]] = {}

    def __len__(self) -> int:
        """Total number of faults (record counts summed)."""
        series = self._index.get((None, None))
        return series[1][-1] if series else 0

    def record(self, fault: FaultRecord) -> None:
        """Add one fault record, merging it into an identical predecessor."""
        records = self._records
        pos = len(records)
        while pos and records[pos - 1].timestamp > fault.timestamp:
            pos -= 1
        late = pos < len(records)
        if pos and records[pos - 1].same_event(fault):
            self._counts[pos - 1] += fault.count
        else:
            records.insert(pos, fault)
            self._counts.insert(pos, fault.count)
        if not late:
            self._index_add(fault.timestamp, fault.fault_class,
                            fault.component, fault.count)
            return
        self._index.clear()
        for r, n in zip(records, self._counts):
            self._index_add(r.timestamp, r.fault_class, r.component, n)

    def _index_add(self, t: float, cls: FaultClass, comp: str,
                   n: int) -> None:
        """Add ``n`` faults no older than any indexed one to the index."""
        for key in ((None, None), (cls, None), (None, comp), (cls, comp)):
            series = self._index.get(key)
            if series is None:
                self._index[key] = ([t], [n])
                continue
            times, totals = series
            if times[-1] == t:
                totals[-1] += n
            else:
                times.append(t)
                totals.append(totals[-1] + n)

    @property
    def records(self) -> List[FaultRecord]:
        """All recorded fault events, in time order, with their counts."""
        return [r if r.count == n else replace(r, count=n)
                for r, n in zip(self._records, self._counts)]

    def count(self, fault_class: Optional[FaultClass] = None,
              component: Optional[str] = None,
              since: float = float("-inf")) -> int:
        """Count faults matching the given filters."""
        series = self._index.get((fault_class, component))
        if series is None:
            return 0
        times, totals = series
        first = bisect_left(times, since)
        return totals[-1] - (totals[first - 1] if first else 0)

    def counts_by_component(self) -> Dict[str, int]:
        """Total fault count per component."""
        return {comp: totals[-1]
                for (cls, comp), (_, totals) in self._index.items()
                if cls is None and comp is not None}

    def counts_by_class(self) -> Dict[FaultClass, int]:
        """Total fault count per fault class."""
        return {cls: totals[-1]
                for (cls, comp), (_, totals) in self._index.items()
                if cls is not None and comp is None}

    def error_rate(self, window_s: float, now: float) -> float:
        """Faults per second over the trailing window ending at ``now``."""
        if window_s <= 0:
            return 0.0
        recent = self.count(since=now - window_s)
        return recent / window_s

    def components_above_threshold(self, threshold: int,
                                   since: float = float("-inf"),
                                   ) -> List[str]:
        """Components whose fault count meets/exceeds ``threshold``.

        These are the "problematic processing and memory resources" the
        hypervisor isolates (Section 4.A).  Only components with at least
        one fault since ``since`` qualify.
        """
        above = []
        for comp in self.counts_by_component():
            n = self.count(component=comp, since=since)
            if n and n >= threshold:
                above.append(comp)
        return sorted(above)

    def clear(self) -> None:
        """Forget all records (e.g. after re-characterisation)."""
        self._records.clear()
        self._counts.clear()
        self._index.clear()

    def state_dict(self) -> Dict[str, object]:
        """Serializable ledger state (every record, in order)."""
        return {"records": [r.as_dict() for r in self.records]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace the ledger contents with the saved records.

        The records are replayed through :meth:`record`, which rebuilds
        the index (and merges runs of identical records in snapshots
        written before records were counted).
        """
        self.clear()
        for r in state["records"]:  # type: ignore[union-attr]
            self.record(FaultRecord.from_dict(r))
