"""A demand-only epoch refills the level the controller already has.

The controller keeps the :class:`~repro.congestion.waterfill.FillLevel`
(row order, weight matrix, weights) of its last fill while the table's
membership generation stands.  These tests pin that the reuse is real (no
matrix lookup or row keys on a demand-only epoch) and invisible (every
allocation bit-equal to a scratch ``waterfill`` of the table).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.congestion import (
    ControllerConfig,
    FlowSpec,
    FlowTable,
    RateController,
    WeightProvider,
    waterfill,
)
from repro.topology import TorusTopology
from repro.types import usec

HEADROOM = 0.05
RHO = usec(500)


def _spec(rng: random.Random, flow_id: int, n_nodes: int, **fields) -> FlowSpec:
    src = rng.randrange(n_nodes)
    dst = rng.randrange(n_nodes - 1)
    if dst >= src:
        dst += 1
    demand = float("inf") if rng.random() < 0.3 else rng.uniform(1e8, 8e9)
    return FlowSpec(flow_id, src, dst, rng.choice(("rps", "ecmp")), demand_bps=demand, **fields)


def _assert_bit_equal(got, want) -> None:
    assert list(got.rates_bps.items()) == list(want.rates_bps.items())
    assert list(got.bottleneck_link.items()) == list(want.bottleneck_link.items())
    assert got.link_load_bps.tobytes() == want.link_load_bps.tobytes()
    assert got.link_capacity_bps.tobytes() == want.link_capacity_bps.tobytes()
    assert got.iterations == want.iterations


class TestMembershipGeneration:
    def test_only_a_demand_update_leaves_it(self):
        table = FlowTable()
        steps = [
            (lambda: table.add(FlowSpec(1, 0, 1)), True),
            (lambda: table.add(FlowSpec(2, 0, 2)), True),
            (lambda: table.update_demand(1, 5e9), False),
            (lambda: table.add(FlowSpec(1, 0, 1, demand_bps=5e9)), True),  # re-announce
            (lambda: table.update_protocol(2, "vlb"), True),
            (lambda: table.remove(1), True),
            (lambda: table.remove(99), False),  # unknown id: nothing changed
            (lambda: table.update_demand(99, 1e9), False),
        ]
        for step, bumps in steps:
            before = table.membership_generation
            step()
            assert (table.membership_generation > before) is bumps


class TestDemandEpochReusesTheLevel:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"level_matrix": 0, "_row_keys": 0}
        for name in calls:
            original = getattr(WeightProvider, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(WeightProvider, name, counting)
        return calls

    def test_demand_only_recompute_builds_no_level(self, torus3d, counted):
        rng = random.Random(5)
        ctrl = RateController(torus3d, node=0)
        for i in range(80):
            ctrl.on_flow_started(_spec(rng, i, torus3d.n_nodes), 0)
        ctrl.recompute(RHO)
        ctrl.on_demand_update(3, 2e9)
        ctrl.on_demand_update(40, 7e8)
        counted.update(level_matrix=0, _row_keys=0)
        allocation = ctrl.recompute(2 * RHO)
        assert counted == {"level_matrix": 0, "_row_keys": 0}
        assert not ctrl.stats[-1].skipped
        want = waterfill(torus3d, ctrl.table.snapshot(), WeightProvider(torus3d), HEADROOM)
        _assert_bit_equal(allocation, want)

    def test_a_membership_change_builds_one(self, torus3d, counted):
        rng = random.Random(6)
        ctrl = RateController(torus3d, node=0)
        for i in range(10):
            ctrl.on_flow_learned(_spec(rng, i, torus3d.n_nodes), 0)
        ctrl.recompute(RHO)
        ctrl.on_flow_finished(4, RHO)
        counted.update(level_matrix=0, _row_keys=0)
        ctrl.recompute(2 * RHO)
        assert counted == {"level_matrix": 1, "_row_keys": 1}

    def test_allocation_shares_the_capacity_vector(self, torus2d):
        ctrl = RateController(torus2d, node=0)
        ctrl.on_flow_learned(FlowSpec(1, 0, 5), 0)
        allocation = ctrl.recompute(RHO)
        assert allocation.link_capacity_bps is ctrl._effective_capacities()
        assert not allocation.link_capacity_bps.flags.writeable
        assert allocation.link_load_bps.flags.writeable


def test_controller_allocations_equal_scratch_fills():
    """A seeded script of 240 epochs; every allocation the controller
    returns is bit-equal to a scratch ``waterfill`` of its table."""
    topo = TorusTopology((4, 4, 4))
    rng = random.Random(2024)
    ctrl = RateController(topo, node=0, config=ControllerConfig(headroom=HEADROOM))
    scratch = WeightProvider(topo)
    provider = ctrl.provider
    original = provider.level_matrix
    lookups = []

    def level_matrix(flows):
        lookups.append(len(flows))
        return original(flows)

    provider.level_matrix = level_matrix
    next_id = 0

    def start(**fields):
        nonlocal next_id
        ctrl.on_flow_started(_spec(rng, next_id, topo.n_nodes, **fields), now)
        next_id += 1

    now = 0
    for _ in range(70):
        start()
    kinds = set()
    for epoch in range(240):
        now += RHO
        live = sorted(ctrl.table.flow_ids())
        u = rng.random()
        if epoch == 120:
            kind = "empty"
            for fid in live:
                ctrl.on_flow_finished(fid, now)
        elif epoch == 121:
            kind = "refill"
            for _ in range(70):
                start()
        elif u < 0.45:
            kind = "demand"
            for _ in range(rng.randint(1, 4)):
                demand = float("inf") if rng.random() < 0.1 else rng.uniform(1e8, 9e9)
                ctrl.on_demand_update(rng.choice(live), demand)
        elif u < 0.65:
            kind = "churn"
            ctrl.on_flow_finished(rng.choice(live), now)
            start()
        elif u < 0.70:
            kind = "reannounce-weight"
            spec = ctrl.table.get(rng.choice(live))
            ctrl.on_flow_learned(replace(spec, weight=spec.weight + 0.5), now)
        elif u < 0.75:
            kind = "reannounce-protocol"
            spec = ctrl.table.get(rng.choice(live))
            other = "vlb" if spec.protocol != "vlb" else "rps"
            ctrl.on_flow_learned(replace(spec, protocol=other), now)
        elif u < 0.80:
            kind = "protocol-update"
            fid = rng.choice(live)
            others = [p for p in ("rps", "ecmp", "vlb") if p != ctrl.table.get(fid).protocol]
            ctrl.on_protocol_update(fid, rng.choice(others))
        elif u < 0.90:
            high = [fid for fid in live if ctrl.table.get(fid).priority == 1]
            if high:
                kind = "priority-leaves"
                ctrl.on_flow_finished(high[0], now)
            else:
                kind = "priority-joins"
                start(priority=1)
        else:
            kind = "idle"
        kinds.add(kind)
        del lookups[:]
        allocation = ctrl.recompute(now)
        if kind == "demand":
            # A single-priority table refills its kept level; a table with
            # two priorities builds both levels, as a scratch fill does.
            levels = len({spec.priority for spec in ctrl.table})
            assert len(lookups) == (0 if levels == 1 else levels)
        want = waterfill(topo, ctrl.table.snapshot(), scratch, headroom=HEADROOM)
        _assert_bit_equal(allocation, want)
    assert kinds >= {
        "empty", "demand", "churn", "reannounce-weight", "reannounce-protocol",
        "protocol-update", "priority-joins", "priority-leaves", "idle",
    }
