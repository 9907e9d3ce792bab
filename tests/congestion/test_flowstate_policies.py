"""Tests for FlowSpec/FlowTable and allocation policies."""

import math

import pytest

from repro.congestion import FlowSpec, FlowTable, TenantShares
from repro.errors import CongestionControlError


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(CongestionControlError):
            FlowSpec(1, 0, 1, weight=0)
        with pytest.raises(CongestionControlError):
            FlowSpec(1, 0, 1, priority=-1)
        with pytest.raises(CongestionControlError):
            FlowSpec(1, 0, 1, demand_bps=0)

    def test_immutable_updates(self):
        spec = FlowSpec(1, 0, 1)
        updated = spec.with_demand(5e9)
        assert updated.demand_bps == 5e9
        assert math.isinf(spec.demand_bps)
        assert spec.with_protocol("vlb").protocol == "vlb"


class TestFlowTable:
    def test_add_remove(self):
        table = FlowTable()
        table.add(FlowSpec(1, 0, 1))
        assert 1 in table
        assert len(table) == 1
        assert table.remove(1)
        assert not table.remove(1)  # idempotent
        assert len(table) == 0

    def test_generation_bumps(self):
        table = FlowTable()
        g0 = table.generation
        table.add(FlowSpec(1, 0, 1))
        g1 = table.generation
        table.update_demand(1, 1e9)
        g2 = table.generation
        assert g0 < g1 < g2

    def test_update_unknown_flow(self):
        table = FlowTable()
        assert not table.update_demand(9, 1e9)
        assert not table.update_protocol(9, "vlb")

    def test_reannounce_overwrites(self):
        table = FlowTable()
        table.add(FlowSpec(1, 0, 1, weight=1.0))
        table.add(FlowSpec(1, 0, 1, weight=2.0))
        assert len(table) == 1
        assert table.get(1).weight == 2.0

    def test_flows_from(self):
        table = FlowTable()
        table.add(FlowSpec(1, 0, 1))
        table.add(FlowSpec(2, 0, 2))
        table.add(FlowSpec(3, 1, 2))
        assert {s.flow_id for s in table.flows_from(0)} == {1, 2}

    def test_snapshot_sorted(self):
        table = FlowTable()
        table.add(FlowSpec(5, 0, 1))
        table.add(FlowSpec(2, 0, 1))
        assert [s.flow_id for s in table.snapshot()] == [2, 5]

    def test_protocol_update(self):
        table = FlowTable()
        table.add(FlowSpec(1, 0, 1, protocol="rps"))
        assert table.update_protocol(1, "vlb")
        assert table.get(1).protocol == "vlb"


class TestPolicies:
    def test_tenant_shares_divide_by_flow_count(self):
        policy = TenantShares({"a": 4.0, "b": 2.0})
        specs = [
            FlowSpec(1, 0, 1, tenant="a"),
            FlowSpec(2, 0, 2, tenant="a"),
            FlowSpec(3, 1, 2, tenant="b"),
        ]
        out = policy.apply_all(specs)
        # Tenant a's 4.0 split over two flows; tenant b's 2.0 over one.
        assert out[0].weight == pytest.approx(2.0)
        assert out[1].weight == pytest.approx(2.0)
        assert out[2].weight == pytest.approx(2.0)

    def test_tenant_aggregate_fairness_on_shared_link(self, fig4_topology):
        # Chatty tenant a opens 3 flows, tenant b one flow, all over the
        # same link; shares 1:1 means the tenants' aggregates stay equal.
        from repro.congestion import WeightProvider, waterfill
        from repro.routing.static import StaticPathSet

        static = StaticPathSet(fig4_topology)
        static.set_paths(1, 3, [[1, 2, 3]])
        provider = WeightProvider(fig4_topology, {"static": static})
        policy = TenantShares({"a": 1.0, "b": 1.0})
        specs = policy.apply_all(
            [
                FlowSpec(1, 1, 3, "static", tenant="a"),
                FlowSpec(2, 1, 3, "static", tenant="a"),
                FlowSpec(3, 1, 3, "static", tenant="a"),
                FlowSpec(4, 1, 3, "static", tenant="b"),
            ]
        )
        alloc = waterfill(fig4_topology, specs, provider)
        tenant_a = sum(alloc.rates_bps[i] for i in (1, 2, 3))
        tenant_b = alloc.rates_bps[4]
        assert tenant_a == pytest.approx(tenant_b)
