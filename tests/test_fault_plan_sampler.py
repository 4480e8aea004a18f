"""Exactness of the seeded fault-plan sampler.

``random_fault_specs`` draws each fault's kind with ``bisect_right``
over the normalised weight cumsum instead of ``Generator.choice``.
The reference below is the ``rng.choice`` loop both plan generators
used before; every seeded plan must keep its exact specs.
"""

import numpy as np
import pytest

from repro.fleet.chaos import _FLEET_MENU, fleet_fault_plan, fleet_node_name
from repro.resilience.chaos import (
    _RANDOM_MENU,
    FaultPlan,
    FaultSpec,
    random_fault_specs,
)


def reference_specs(nodes, duration_s, menu, rate_per_hour, seed,
                    intensity):
    """The ``Generator.choice`` sampler, kept as the reference."""
    rng = np.random.default_rng(seed)
    kinds = [entry[0] for entry in menu]
    weights = np.array([entry[1] for entry in menu])
    weights = weights / weights.sum()
    windows = {entry[0]: entry[2] for entry in menu}
    specs = []
    expected = rate_per_hour * duration_s / 3600.0
    for node in nodes:
        for _ in range(int(rng.poisson(expected))):
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            lo, hi = windows[kind]
            fault_duration = float(rng.uniform(lo, hi)) if hi > 0 else 0.0
            latest = max(0.0, duration_s
                         - min(fault_duration, duration_s / 2))
            start = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
            magnitude = float(np.clip(
                intensity * rng.uniform(0.6, 1.0), 0.05, 1.0))
            specs.append(FaultSpec(
                kind=kind, node=node, start_s=start,
                duration_s=fault_duration, magnitude=magnitude))
    return specs


#: (n, duration_s, seed, rate_per_hour, intensity): rate 0, one node,
#: short and long windows, low intensity (the 0.05 floor), full.
CASES = [
    (1, 3600.0, 0, 6.0, 0.5),
    (1, 600.0, 3, 40.0, 1.0),
    (7, 1800.0, 1, 0.0, 0.5),
    (16, 1800.0, 5, 6.0, 0.05),
    (40, 7200.0, 7919, 12.0, 0.7),
    (200, 900.0, 2, 20.0, 0.3),
]


@pytest.mark.parametrize("n, duration_s, seed, rate, intensity", CASES)
def test_fleet_plan_equals_choice_reference(n, duration_s, seed, rate,
                                            intensity):
    names = [fleet_node_name(i) for i in range(n)]
    expected = FaultPlan(reference_specs(names, duration_s, _FLEET_MENU,
                                         rate, seed, intensity))
    plan = fleet_fault_plan(n, duration_s, seed=seed, rate_per_hour=rate,
                            intensity=intensity)
    assert plan.specs == expected.specs
    if rate > 0 and n > 1:
        assert len(plan) > 0


@pytest.mark.parametrize("n, duration_s, seed, rate, intensity", CASES)
def test_random_plan_equals_choice_reference(n, duration_s, seed, rate,
                                             intensity):
    # Node names out of order: the plan visits them sorted.
    nodes = [f"n{i}" for i in reversed(range(n))]
    expected = FaultPlan(reference_specs(sorted(nodes), duration_s,
                                         _RANDOM_MENU, rate, seed,
                                         intensity))
    plan = FaultPlan.random(nodes, duration_s, rate_per_hour=rate,
                            seed=seed, intensity=intensity)
    assert plan.specs == expected.specs


def test_sampler_visits_nodes_in_given_order():
    menu = _FLEET_MENU
    forward = random_fault_specs(["a", "b"], 7200.0, menu, 20.0, 4, 0.5)
    assert forward == reference_specs(["a", "b"], 7200.0, menu, 20.0, 4,
                                      0.5)
    backward = random_fault_specs(["b", "a"], 7200.0, menu, 20.0, 4, 0.5)
    assert backward != forward
