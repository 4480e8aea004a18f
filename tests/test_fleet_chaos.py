"""Tests for the vectorized fleet chaos layer (repro.fleet.chaos)."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.fleet import (
    FleetCampaignConfig,
    FleetChaos,
    FleetConfig,
    fleet_fault_plan,
    fleet_node_index,
    fleet_node_name,
    run_fleet_campaign,
)
from repro.fleet.chaos import CORRELATED_FAULT_KINDS, FLEET_FAULT_KINDS
from repro.fleet.state import DYNAMIC_FIELDS
from repro.fleet.vectors import FleetVectors, build_fleet_state
from repro.persistence.snapshot import canonical_json
from repro.resilience.chaos import FaultKind, FaultPlan, FaultSpec


def chaos_config(**overrides):
    fleet = overrides.pop("fleet", None) or FleetConfig(
        n_nodes=overrides.pop("n_nodes", 8),
        seed=overrides.pop("seed", 0))
    defaults = dict(fleet=fleet, duration_s=1800.0,
                    arrivals_per_hour=240.0, mean_lifetime_s=600.0,
                    telemetry_every_steps=5, chaos_seed=5)
    defaults.update(overrides)
    return FleetCampaignConfig(**defaults)


def _plan_order(spec):
    return (spec.start_s, spec.node, spec.kind.value)


class TestFaultPlan:
    def test_compiled_plan_keeps_the_fully_sorted_order(self):
        # The merged plan sorts once and for_kinds filters without
        # sorting; both must equal sorting at every stage.
        config = chaos_config(fleet=FleetConfig(n_nodes=4000, seed=0),
                              chaos_seed=1, correlated_seed=2,
                              domain_defense=True)
        plan, correlated = config.fault_plan(), config.correlated_plan()
        merged = sorted(plan.specs + correlated.specs, key=_plan_order)
        kinds = FLEET_FAULT_KINDS + CORRELATED_FAULT_KINDS
        expected = tuple(sorted((s for s in merged if s.kind in kinds),
                                key=_plan_order))
        assert len(expected) > 1000
        assert config.build_chaos().plan.specs == expected
        crashes = plan.for_kinds([FaultKind.NODE_CRASH])
        assert crashes.specs == tuple(sorted(
            (s for s in plan.specs if s.kind is FaultKind.NODE_CRASH),
            key=_plan_order))

    def test_seeded_plan_is_deterministic(self):
        a = fleet_fault_plan(8, 3600.0, seed=3)
        b = fleet_fault_plan(8, 3600.0, seed=3)
        assert list(a) == list(b)
        assert list(a) != list(fleet_fault_plan(8, 3600.0, seed=4))

    def test_plan_uses_fleet_kinds_and_names(self):
        plan = fleet_fault_plan(4, 7200.0, seed=0, rate_per_hour=12.0)
        assert len(plan) > 0
        for spec in plan:
            assert spec.kind in FLEET_FAULT_KINDS
            assert fleet_node_index(spec.node, 4) is not None

    def test_node_name_round_trip(self):
        assert fleet_node_name(3) == "node3"
        assert fleet_node_index("node3", 8) == 3
        assert fleet_node_index("node9", 8) is None
        assert fleet_node_index("rack1", 8) is None

    def test_for_kinds_filters(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.NODE_CRASH, "node0", 0.0),
            FaultSpec(FaultKind.HEARTBEAT_LOSS, "node1", 0.0, 60.0),
        ])
        kept = plan.for_kinds(FLEET_FAULT_KINDS)
        assert [s.kind for s in kept] == [FaultKind.NODE_CRASH]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fleet_fault_plan(0, 3600.0)
        with pytest.raises(ConfigurationError):
            fleet_fault_plan(4, 0.0)
        with pytest.raises(ConfigurationError):
            fleet_fault_plan(4, 3600.0, intensity=0.0)


class TestMasks:
    def _chaos(self, specs, n=4, **kwargs):
        config = FleetConfig(n_nodes=n, seed=0)
        return FleetChaos(FaultPlan(specs), config, **kwargs)

    def test_crash_and_down_windows(self):
        chaos = self._chaos(
            [FaultSpec(FaultKind.NODE_CRASH, "node1", 120.0)],
            crash_down_steps=3)
        assert not chaos.crash_mask(1).any()
        assert chaos.crash_mask(2).tolist() == [False, True, False,
                                                False]
        # DOWN for crash_down_steps starting at the crash step.
        assert chaos.down_mask(2)[1] and chaos.down_mask(4)[1]
        assert not chaos.down_mask(5)[1]

    def test_wedge_window_quantization(self):
        chaos = self._chaos([FaultSpec(
            FaultKind.EOP_GOVERNOR_WEDGE, "node0", 90.0, 200.0)])
        # 90s..290s at 60s steps -> steps 1..4 inclusive.
        assert [bool(chaos.wedge_mask(t)[0]) for t in range(6)] \
            == [False, True, True, True, True, False]

    def test_dropout_draws_are_seeded_and_windowed(self):
        spec = FaultSpec(FaultKind.TELEMETRY_DROPOUT, "node2",
                         0.0, 600.0, magnitude=1.0)
        chaos = self._chaos([spec])
        inside = chaos.dropout_mask(3)
        assert inside[2] and not inside[[0, 1, 3]].any()
        assert not chaos.dropout_mask(30).any()  # window over
        again = self._chaos([spec]).dropout_mask(3)
        assert np.array_equal(inside, again)

    def test_view_shares_memory_and_slices(self):
        chaos = self._chaos(
            [FaultSpec(FaultKind.NODE_CRASH, "node2", 0.0)], n=4)
        view = chaos.view(2, 4)
        assert view.n == 2
        assert np.array_equal(view.crash_mask(0),
                              chaos.crash_mask(0)[2:4])
        assert np.shares_memory(view.keys, chaos.keys)

    def test_foreign_nodes_ignored(self):
        chaos = self._chaos(
            [FaultSpec(FaultKind.NODE_CRASH, "rack7", 0.0)])
        assert not chaos.crash_mask(0).any()


class TestMaskMemo:
    """Memoised masks equal freshly computed ones and stay read-only."""

    MASKS = ("crash_mask", "down_mask", "partition_mask", "at_risk_mask",
             "brownout_crash_mask")

    def _config(self):
        # A 50% brownout hazard, so the down mask's lookback over the
        # brownout crash draws is exercised, plus plan crashes.
        return chaos_config(
            fleet=FleetConfig(n_nodes=16, seed=3, nodes_per_rack=2,
                              brownout_crash_scale=0.5),
            chaos_rate_per_hour=20.0, correlated_seed=7,
            correlated_rate_per_hour=3.0, correlated_intensity=1.0,
            crash_down_steps=4)

    def _fresh(self, config, name, t):
        return getattr(config.build_chaos(), name)(t)

    def test_memoised_masks_equal_fresh_masks(self):
        config = self._config()
        chaos = config.build_chaos()
        steps = list(range(config.n_steps))
        # Forward like a campaign, then backward and forward again with
        # gaps, so evicted steps get recomputed.
        order = steps + steps[::-1] + steps[::3] + steps[::7]
        fired = set()
        for t in order:
            for name in self.MASKS:
                first = getattr(chaos, name)(t)
                again = getattr(chaos, name)(t)
                assert np.array_equal(first, again), (name, t)
                assert np.array_equal(
                    first, self._fresh(config, name, t)), (name, t)
                if first.any():
                    fired.add(name)
        assert fired == set(self.MASKS)

    def test_memo_stays_bounded(self):
        config = self._config()
        chaos = config.build_chaos()
        for t in range(config.n_steps):
            for name in self.MASKS:
                getattr(chaos, name)(t)
        sizes = {name: len(cache) for name, cache in chaos._memo.items()}
        assert sizes.pop("brownout_crash") == config.crash_down_steps
        assert set(sizes.values()) == {1}

    def test_returned_masks_cannot_be_changed(self):
        config = self._config()
        chaos = config.build_chaos()
        view = chaos.view(4, 12)
        for t in range(config.n_steps):
            for name in self.MASKS:
                for source, lo, hi in ((chaos, 0, 16), (view, 4, 12)):
                    mask = getattr(source, name)(t)
                    with pytest.raises(ValueError):
                        mask[:] = ~mask
                    with pytest.raises(ValueError):
                        mask |= True
                    mine = mask.copy()
                    mine[:] = True
                    assert np.array_equal(
                        getattr(source, name)(t),
                        self._fresh(config, name, t)[lo:hi]), (name, t)


class TestKernelIdentityUnderChaos:
    def test_step_equals_step_node_with_chaos(self):
        config = FleetConfig(n_nodes=6, seed=2, review_every_steps=2)
        plan = fleet_fault_plan(6, 1800.0, seed=9, rate_per_hour=40.0)
        vectors = FleetVectors(config)
        batch = build_fleet_state(config)
        naive = build_fleet_state(config)
        chaos_b = FleetChaos(plan, config, keys=batch.keys)
        chaos_n = FleetChaos(plan, config, keys=naive.keys)
        rng = np.random.default_rng(7)
        for t in range(12):
            used = rng.integers(0, config.vcpus_per_node + 1,
                                size=6).astype(np.int64)
            batch.used_vcpus[:] = used
            naive.used_vcpus[:] = used
            vectors.step(batch, t, chaos_b)
            for index in range(6):
                vectors.step_node(naive, index, t, chaos_n)
        for name, _ in DYNAMIC_FIELDS:
            assert np.array_equal(getattr(batch, name),
                                  getattr(naive, name)), name

    def test_crash_demotes_and_downs_node(self):
        config = FleetConfig(n_nodes=2, seed=0)
        chaos = FleetChaos(FaultPlan([
            FaultSpec(FaultKind.NODE_CRASH, "node0", 0.0)]), config,
            crash_down_steps=2)
        state = build_fleet_state(config)
        vectors = FleetVectors(config)
        state.used_vcpus[:] = config.vcpus_per_node
        vectors.step(state, 0, chaos)
        assert not state.margin_on[0] and state.margin_on[1]
        assert state.crashes_total.tolist() == [1, 0]
        assert state.down_until_step[0] == 2
        # DOWN node computes idle activity: strictly less power.
        assert state.power_w[0] < state.power_w[1]


class TestCampaignUnderChaos:
    def test_report_invariance_with_chaos(self):
        baseline = canonical_json(run_fleet_campaign(chaos_config()))
        sharded = canonical_json(run_fleet_campaign(
            chaos_config(shards=4)))
        scalar = canonical_json(run_fleet_campaign(
            chaos_config(stepper="scalar")))
        jobs = canonical_json(run_fleet_campaign(
            chaos_config(shards=4), jobs=2))
        assert baseline == sharded == scalar == jobs

    def test_chaos_seed_changes_report_and_is_echoed(self):
        clean = run_fleet_campaign(chaos_config(chaos_seed=None))
        chaotic = run_fleet_campaign(chaos_config())
        assert clean["report_sha256"] != chaotic["report_sha256"]
        assert chaotic["config"]["chaos_seed"] == 5
        assert clean["totals"]["crashes"] == 0
        assert chaotic["totals"]["crashes"] > 0
        assert chaotic["totals"]["vm_failures"] > 0
        assert "quarantine" not in chaotic

    def test_dropout_shrinks_observed_telemetry(self):
        report = run_fleet_campaign(chaos_config(
            chaos_rate_per_hour=40.0))
        n = chaos_config().fleet.n_nodes
        observed = [entry["telemetry_observed"]
                    for entry in report["series"]]
        assert all(0 <= o <= n for o in observed)
        assert any(o < n for o in observed)
        for entry in report["series"]:
            assert (entry["telemetry_observed"]
                    + entry["telemetry_dropped"]
                    + entry["nodes_down"]
                    >= entry["telemetry_observed"])

    def test_snapshot_resume_under_chaos(self, tmp_path):
        config = chaos_config(shards=2)
        full = run_fleet_campaign(config)
        campaign = None
        from repro.fleet import FleetCampaign
        campaign = FleetCampaign(config, snapshot_dir=tmp_path)
        campaign.run(until_step=17)
        campaign.take_snapshot()
        campaign.close()
        resumed = FleetCampaign(config, snapshot_dir=tmp_path)
        assert resumed.resume()
        resumed.run()
        assert canonical_json(resumed.report()) == canonical_json(full)
        resumed.close()


class TestZonedChaos:
    def test_zoned_experiment_accepts_chaos_seed(self):
        from repro.fleet import run_zoned_rack_experiment

        experiment = run_zoned_rack_experiment(
            n_nodes=4, shards=2, duration_s=1200.0, seed=0,
            chaos_seed=5, chaos_rate_per_hour=20.0)
        assert experiment.stats.arrivals >= 0
        # The same seed drives the same plan as the vector layer.
        plan = fleet_fault_plan(4, 1200.0, seed=5, rate_per_hour=20.0)
        assert len(plan) > 0
