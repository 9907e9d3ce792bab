"""Hierarchical routing across the racks of a switchless composed fabric (§6)."""

import random
import subprocess
import sys

import pytest

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.errors import RoutingError
from repro.routing import HierarchicalRouting
from repro.topology import FabricSpec, synthesize
from repro.types import gbps

pytestmark = pytest.mark.synth


@pytest.fixture
def two_racks():
    """Two 4x4 tori joined by two 40 Gbps gateway cables."""
    return synthesize(
        FabricSpec(design="ring", rack_dims=(4, 4), n_racks=2, gateway_ports=2,
                   bridge_capacity_bps=gbps(40))
    ).topology


@pytest.fixture
def three_rack_ring():
    return synthesize(
        FabricSpec(design="ring", rack_dims=(3, 3), n_racks=3, gateway_ports=2)
    ).topology


class TestHierarchicalRouting:
    def test_requires_fabric(self, torus2d):
        with pytest.raises(RoutingError):
            HierarchicalRouting(torus2d)

    def test_refuses_fabrics_with_switches(self):
        switched = synthesize(
            FabricSpec(design="switched", rack_dims=(3, 3), n_racks=2, gateway_ports=2)
        ).topology
        with pytest.raises(RoutingError, match="switchless"):
            HierarchicalRouting(switched)

    def test_intra_rack_paths_minimal(self, two_racks, rng):
        hier = HierarchicalRouting(two_racks)
        path = hier.sample_path(0, 5, rng)
        assert len(path) - 1 == two_racks.distance(0, 5)

    def test_inter_rack_paths_cross_exactly_one_bridge(self, two_racks, rng):
        hier = HierarchicalRouting(two_racks)
        src, dst = 0, two_racks.global_id(1, 9)
        for _ in range(20):
            path = hier.sample_path(src, dst, rng)
            assert path[0] == src and path[-1] == dst
            crossings = sum(
                1
                for i in range(len(path) - 1)
                if two_racks.rack_of(path[i]) != two_racks.rack_of(path[i + 1])
            )
            assert crossings == 1

    def test_cables_load_balanced(self, two_racks, rng):
        hier = HierarchicalRouting(two_racks)
        src, dst = 0, two_racks.global_id(1, 9)
        used = set()
        for _ in range(60):
            path = hier.sample_path(src, dst, rng)
            for i in range(len(path) - 1):
                link = two_racks.link_id(path[i], path[i + 1])
                if two_racks.is_gateway_link(link):
                    used.add(link)
        assert len(used) == 2  # both parallel cables see traffic

    def test_weights_unit_bridge_mass(self, two_racks):
        hier = HierarchicalRouting(two_racks)
        weights = hier.link_weights(0, two_racks.global_id(1, 9))
        bridge_mass = sum(
            w for link, w in weights.items() if two_racks.is_gateway_link(link)
        )
        assert bridge_mass == pytest.approx(1.0)

    def test_multi_hop_rack_route(self, three_rack_ring):
        # Three racks in a ring: 0 -> 2 goes via 1 or directly, depending on
        # cabling; the route must still arrive.
        fabric = three_rack_ring
        hier = HierarchicalRouting(fabric)
        rng = random.Random(0)
        src, dst = 0, fabric.global_id(2, 4)
        path = hier.sample_path(src, dst, rng)
        assert path[-1] == dst
        weights = hier.link_weights(src, dst)
        assert sum(weights.values()) > 0

    def test_waterfill_bridge_bottleneck(self, two_racks):
        hier = HierarchicalRouting(two_racks)
        provider = WeightProvider(two_racks, {"hier": hier})
        inter = [
            FlowSpec(i, two_racks.global_id(0, i), two_racks.global_id(1, i), "hier")
            for i in range(8)
        ]
        intra = [FlowSpec(100, 0, 5, "hier")]
        alloc = waterfill(two_racks, inter + intra, provider)
        # Inter-rack flows share 2 x 40G of bridge capacity.
        inter_total = sum(alloc.rates_bps[i] for i in range(8))
        assert inter_total <= 2 * gbps(40) * 1.001
        # The intra-rack flow is not bridge-constrained.
        assert alloc.rates_bps[100] > max(alloc.rates_bps[i] for i in range(8))


def test_registered_by_importing_repro_routing_alone():
    """The hierarchical protocols resolve in an interpreter that imported
    nothing but ``repro.routing`` — registration is not an accident of
    which other package happened to be imported first."""
    script = (
        "import repro.routing as routing\n"
        "names = [routing.protocol_class(i).name for i in (6, 7, 8)]\n"
        "assert names == ['hier', 'hier_wlb', 'hier_vlb'], names\n"
        "from repro.topology import FabricSpec, synthesize\n"
        "fabric = synthesize(FabricSpec(design='ring', rack_dims=(2, 2),\n"
        "    n_racks=3, gateway_ports=2)).topology\n"
        "protocol = routing.make_protocol('hier_vlb', fabric)\n"
        "assert sum(protocol.link_weights(0, fabric.n_nodes - 1).values()) > 0\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
