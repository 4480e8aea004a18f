"""The counted, indexed fault ledger against a naive scan of its faults."""

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.hardware.faults import (
    FaultClass,
    FaultLedger,
    FaultOrigin,
    FaultRecord,
)

COMPONENTS = ("core0", "core2", "channel1", "channel2")


@st.composite
def record_streams(draw, max_size=40):
    """Records with non-decreasing timestamps (repeats allowed)."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    t = draw(st.sampled_from([0.0, 100.0]))
    stream = []
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 30.0]))
        stream.append(FaultRecord(
            timestamp=t,
            fault_class=draw(st.sampled_from(list(FaultClass))),
            origin=draw(st.sampled_from([FaultOrigin.DRAM,
                                         FaultOrigin.CACHE])),
            component=draw(st.sampled_from(COMPONENTS)),
            operating_point=draw(st.sampled_from(["", "1.0 V"])),
            detail=draw(st.sampled_from(["", "guest page"])),
            count=draw(st.integers(min_value=1, max_value=4)),
        ))
    return stream


def _ledger(stream):
    ledger = FaultLedger()
    for record in stream:
        ledger.record(record)
    return ledger


def _expanded(stream):
    """One entry per fault: the view the old uncounted ledger kept."""
    return [r for r in stream for _ in range(r.count)]


def _naive_count(faults, fault_class=None, component=None,
                 since=float("-inf")):
    return sum(1 for r in faults
               if (fault_class is None or r.fault_class is fault_class)
               and (component is None or r.component == component)
               and r.timestamp >= since)


def _sinces(stream):
    times = sorted({r.timestamp for r in stream})
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return [float("-inf"), -1.0, *times, *mids, 1e9, float("inf")]


def _assert_matches_naive(ledger, stream):
    faults = _expanded(stream)
    assert len(ledger) == len(faults)
    assert ledger.counts_by_class() == dict(
        Counter(r.fault_class for r in faults))
    assert ledger.counts_by_component() == dict(
        Counter(r.component for r in faults))
    sinces = _sinces(stream)
    for fault_class in (None, *FaultClass):
        for component in (None, *COMPONENTS, "absent"):
            for since in sinces:
                assert ledger.count(fault_class, component, since) == \
                    _naive_count(faults, fault_class, component, since)
    for since in sinces:
        window = Counter(r.component for r in faults if r.timestamp >= since)
        for threshold in range(0, 7):
            assert ledger.components_above_threshold(threshold, since) == \
                sorted(c for c, n in window.items() if n >= threshold)
    for now in sinces[2:-2]:
        for window_s in (0.0, 0.5, 1.0, 60.0):
            expected = (_naive_count(faults, since=now - window_s) / window_s
                        if window_s > 0 else 0.0)
            assert math.isclose(ledger.error_rate(window_s, now), expected)


def _merged(stream):
    """Runs of consecutive identical events folded into one record."""
    merged = []
    for r in stream:
        if merged and merged[-1].same_event(r):
            r = replace(r, count=merged.pop().count + r.count)
        merged.append(r)
    return merged


class TestQueriesMatchNaiveScan:
    @given(record_streams())
    @settings(max_examples=80, deadline=None)
    def test_every_query(self, stream):
        _assert_matches_naive(_ledger(stream), stream)

    @given(record_streams())
    @settings(max_examples=40, deadline=None)
    def test_only_consecutive_identical_events_merge(self, stream):
        assert _ledger(stream).records == _merged(stream)

    @given(record_streams(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_late_records_are_inserted_in_time_order(self, stream, rnd):
        shuffled = list(stream)
        rnd.shuffle(shuffled)
        ledger = _ledger(shuffled)
        _assert_matches_naive(ledger, stream)
        times = [r.timestamp for r in ledger.records]
        assert times == sorted(times)


class TestPersistence:
    @given(record_streams())
    @settings(max_examples=40, deadline=None)
    def test_state_dict_round_trip(self, stream):
        ledger = _ledger(stream)
        restored = FaultLedger()
        restored.load_state_dict(ledger.state_dict())
        assert restored.records == ledger.records
        assert restored.state_dict() == ledger.state_dict()
        _assert_matches_naive(restored, stream)

    @given(record_streams())
    @settings(max_examples=40, deadline=None)
    def test_legacy_uncounted_snapshot_loads(self, stream):
        legacy = {"records": []}
        for r in _expanded(stream):
            state = replace(r, count=1).as_dict()
            assert "count" not in state
            legacy["records"].append(state)
        ledger = FaultLedger()
        ledger.load_state_dict(legacy)
        assert ledger.records == _ledger(stream).records
        _assert_matches_naive(ledger, stream)


class TestCountedRecord:
    def _record(self, t=1.0, component="core0", count=1):
        return FaultRecord(timestamp=t, fault_class=FaultClass.CORRECTABLE,
                           origin=FaultOrigin.CACHE, component=component,
                           count=count)

    def test_count_written_only_when_not_one(self):
        assert "count" not in self._record().as_dict()
        state = self._record(count=3).as_dict()
        assert state["count"] == 3
        assert FaultRecord.from_dict(state) == self._record(count=3)

    def test_count_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            self._record(count=0)

    def test_interleaved_events_do_not_merge(self):
        ledger = FaultLedger()
        for component in ("core0", "core2", "core0"):
            ledger.record(self._record(component=component))
        assert len(ledger.records) == 3
        assert len(ledger) == 3

    def test_late_record_merges_with_identical_predecessor(self):
        ledger = FaultLedger()
        ledger.record(self._record(t=1.0))
        ledger.record(self._record(t=5.0))
        ledger.record(self._record(t=1.0, count=2))
        assert [(r.timestamp, r.count) for r in ledger.records] == \
            [(1.0, 3), (5.0, 1)]
        assert ledger.count(since=2.0) == 1
        assert len(ledger) == 4

    def test_clear_forgets_index(self):
        ledger = FaultLedger()
        ledger.record(self._record(count=5))
        ledger.clear()
        assert len(ledger) == 0
        assert ledger.count() == 0
        assert ledger.counts_by_component() == {}
