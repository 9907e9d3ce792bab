"""Tests for the weighted water-filling allocator."""

import math

import pytest

from repro.congestion import FlowSpec, WeightProvider, effective_capacities, waterfill
from repro.errors import CongestionControlError
from repro.routing.static import StaticPathSet
from repro.topology import GraphTopology
from repro.types import gbps


@pytest.fixture
def two_node():
    """Two nodes, one cable, capacity 10 (easy arithmetic)."""
    return GraphTopology(2, [(0, 1)], capacity_bps=10.0, latency_ns=0)


def static_provider(topology, paths_by_pair):
    static = StaticPathSet(topology)
    for (src, dst), paths in paths_by_pair.items():
        static.set_paths(src, dst, paths)
    return WeightProvider(topology, {"static": static})


class TestBasics:
    def test_single_flow_gets_capacity(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        alloc = waterfill(two_node, [FlowSpec(1, 0, 1, "static")], provider)
        assert alloc.rates_bps[1] == pytest.approx(10.0)
        assert alloc.bottleneck_link[1] == two_node.link_id(0, 1)

    def test_equal_split(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [FlowSpec(i, 0, 1, "static") for i in range(4)]
        alloc = waterfill(two_node, flows, provider)
        for i in range(4):
            assert alloc.rates_bps[i] == pytest.approx(2.5)

    def test_weighted_split(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", weight=1.0),
            FlowSpec(2, 0, 1, "static", weight=3.0),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(2.5)
        assert alloc.rates_bps[2] == pytest.approx(7.5)

    def test_empty_flow_list(self, two_node, provider):
        alloc = waterfill(two_node, [], WeightProvider(two_node))
        assert alloc.rates_bps == {}
        assert alloc.aggregate_throughput_bps() == 0.0

    def test_duplicate_flow_ids_rejected(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [FlowSpec(1, 0, 1, "static"), FlowSpec(1, 0, 1, "static")]
        with pytest.raises(CongestionControlError):
            waterfill(two_node, flows, provider)

    def test_duplicate_error_names_the_first_repeated_id(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [FlowSpec(fid, 0, 1, "static") for fid in (3, 1, 2, 1, 3)]
        with pytest.raises(CongestionControlError, match=r"^duplicate flow id 1$"):
            waterfill(two_node, flows, provider)


class TestFigure4:
    """The paper's Figure 4 example: restricted splits lose utilization."""

    def test_r2c2_rates_two_thirds(self, fig4_topology):
        provider = static_provider(
            fig4_topology,
            {(0, 3): [[0, 3], [0, 2, 3]], (1, 3): [[1, 2, 3]]},
        )
        flows = [FlowSpec(1, 0, 3, "static"), FlowSpec(2, 1, 3, "static")]
        alloc = waterfill(fig4_topology, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(2 / 3)
        assert alloc.rates_bps[2] == pytest.approx(2 / 3)

    def test_exact_maxmin_is_one(self, fig4_topology):
        from repro.congestion import PathFlow, maxmin_rates

        rates = maxmin_rates(
            fig4_topology,
            [PathFlow(1, [[0, 3], [0, 2, 3]]), PathFlow(2, [[1, 2, 3]])],
        )
        assert rates[1] == pytest.approx(1.0, abs=1e-5)
        assert rates[2] == pytest.approx(1.0, abs=1e-5)

    def test_rerouting_recovers_utilization(self, fig4_topology):
        # §3.3.1: "flow f1's routing would be changed so it only uses the
        # path 1 -> 4" — then both flows reach rate 1.
        provider = static_provider(
            fig4_topology,
            {(0, 3): [[0, 3]], (1, 3): [[1, 2, 3]]},
        )
        flows = [FlowSpec(1, 0, 3, "static"), FlowSpec(2, 1, 3, "static")]
        alloc = waterfill(fig4_topology, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(1.0)
        assert alloc.rates_bps[2] == pytest.approx(1.0)


class TestHeadroom:
    def test_headroom_reduces_capacity(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        alloc = waterfill(
            two_node, [FlowSpec(1, 0, 1, "static")], provider, headroom=0.05
        )
        assert alloc.rates_bps[1] == pytest.approx(9.5)

    def test_invalid_headroom(self, two_node):
        with pytest.raises(CongestionControlError):
            effective_capacities(two_node, headroom=1.0)
        with pytest.raises(CongestionControlError):
            effective_capacities(two_node, headroom=-0.1)

    def test_effective_capacities_shape(self, torus2d):
        caps = effective_capacities(torus2d, 0.1)
        assert caps.shape == (torus2d.n_links,)
        assert caps[0] == pytest.approx(torus2d.capacity_bps * 0.9)


class TestDemands:
    def test_demand_limited_flow_frees_capacity(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", demand_bps=2.0),
            FlowSpec(2, 0, 1, "static"),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(2.0)
        assert alloc.rates_bps[2] == pytest.approx(8.0)
        assert alloc.bottleneck_link[1] is None  # demand-frozen

    def test_all_demand_limited_leaves_slack(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [FlowSpec(i, 0, 1, "static", demand_bps=1.0) for i in range(3)]
        alloc = waterfill(two_node, flows, provider)
        assert all(alloc.rates_bps[i] == pytest.approx(1.0) for i in range(3))
        assert alloc.max_link_utilization() < 0.5

    def test_demand_above_fair_share_is_ignored(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", demand_bps=100.0),
            FlowSpec(2, 0, 1, "static"),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(5.0)


class TestPriorities:
    def test_strict_priority(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", priority=0),
            FlowSpec(2, 0, 1, "static", priority=1),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(10.0)
        assert alloc.rates_bps[2] == pytest.approx(0.0)

    def test_lower_priority_gets_leftovers(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", priority=0, demand_bps=4.0),
            FlowSpec(2, 0, 1, "static", priority=1),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[1] == pytest.approx(4.0)
        assert alloc.rates_bps[2] == pytest.approx(6.0)

    def test_weights_within_priority_level(self, two_node):
        provider = static_provider(two_node, {(0, 1): [[0, 1]]})
        flows = [
            FlowSpec(1, 0, 1, "static", priority=0, demand_bps=2.0),
            FlowSpec(2, 0, 1, "static", priority=1, weight=1.0),
            FlowSpec(3, 0, 1, "static", priority=1, weight=3.0),
        ]
        alloc = waterfill(two_node, flows, provider)
        assert alloc.rates_bps[2] == pytest.approx(2.0)
        assert alloc.rates_bps[3] == pytest.approx(6.0)


class TestMultipath:
    def test_rps_flow_exceeds_single_link(self, torus2d):
        # Spraying over several first hops lets one flow beat link capacity.
        provider = WeightProvider(torus2d)
        alloc = waterfill(torus2d, [FlowSpec(1, 0, 10, "rps")], provider)
        assert alloc.rates_bps[1] > torus2d.capacity_bps

    def test_load_never_exceeds_capacity(self, torus2d):
        provider = WeightProvider(torus2d)
        flows = [
            FlowSpec(i, src, (src + 5) % 16, "rps")
            for i, src in enumerate(range(0, 16, 2))
        ]
        alloc = waterfill(torus2d, flows, provider, headroom=0.05)
        assert (alloc.link_load_bps <= alloc.link_capacity_bps * (1 + 1e-6)).all()

    def test_max_min_property_no_starved_flow(self, torus3d):
        # Every flow is either at its bottleneck's fair level or demand.
        provider = WeightProvider(torus3d)
        flows = [FlowSpec(i, i, (i * 7 + 3) % 64, "rps") for i in range(20)]
        alloc = waterfill(torus3d, flows, provider)
        assert min(alloc.rates_bps.values()) > 0

    def test_iterations_recorded(self, torus2d):
        provider = WeightProvider(torus2d)
        flows = [FlowSpec(i, i, (i + 3) % 16, "rps") for i in range(8)]
        alloc = waterfill(torus2d, flows, provider)
        assert alloc.iterations >= 1
