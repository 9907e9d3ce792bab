"""repro.topology.composed: the one multi-rack fabric class (§6)."""

import re
from pathlib import Path

import pytest

from repro.analysis import TIER_GATEWAY, TIER_INTRA, link_tiers
from repro.errors import TopologyError
from repro.topology import (
    SYNTH_DESIGNS,
    ComposedFabric,
    FabricSpec,
    Topology,
    TorusTopology,
    bisection_bandwidth_bps,
    enumerate_shortest_paths,
    synthesize,
)
from repro.topology.partition import partition_topology
from repro.types import gbps
from repro.validation import FaultInjector
from repro.workloads import COMPOSED_PATTERNS

pytestmark = pytest.mark.synth

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _fabric(**spec):
    return synthesize(FabricSpec(**spec)).topology


@pytest.fixture
def two_racks():
    """Two 4x4 tori joined by two 40 Gbps gateway cables."""
    return _fabric(design="ring", rack_dims=(4, 4), n_racks=2, gateway_ports=2,
                   bridge_capacity_bps=gbps(40))


class TestComposedFabric:
    def test_id_arithmetic(self, two_racks):
        assert two_racks.n_racks == 2
        assert two_racks.rack_size == 16
        assert two_racks.rack_of(0) == 0
        assert two_racks.rack_of(17) == 1
        assert two_racks.local_id(17) == 1
        assert two_racks.global_id(1, 1) == 17
        assert two_racks.n_hosts == two_racks.n_nodes == 32
        assert two_racks.n_switches == 0

    def test_gateway_links_have_their_own_capacity(self, two_racks):
        gateways = two_racks.gateway_links()
        assert len(gateways) == 4  # 2 cables x 2 directions
        assert all(link.capacity_bps == gbps(40) for link in gateways)
        # Fabric links keep the rack capacity.
        intra = two_racks.link(0, 1)
        assert intra.capacity_bps == gbps(10)

    def test_is_gateway_link(self, two_racks):
        gateway = two_racks.gateway_links()[0]
        assert two_racks.is_gateway_link(gateway.link_id)
        assert not two_racks.is_gateway_link(two_racks.link_id(0, 1))
        # A single rack answers the same question: it has no gateway tier.
        rack = two_racks.rack_topology(0)
        assert not any(rack.is_gateway_link(l.link_id) for l in rack.links)
        assert rack.n_hosts == rack.n_nodes and list(rack.hosts()) == list(rack.nodes())

    def test_oversubscription(self, two_racks):
        # 16 nodes x 10G rack capacity vs 2 x 40G cables.
        assert two_racks.oversubscription_ratio() == pytest.approx(2.0)

    def test_connected_across_racks(self, two_racks):
        assert two_racks.is_connected()
        assert two_racks.distance(0, two_racks.global_id(1, 0)) >= 1

    def test_validation(self):
        rack = TorusTopology((4, 4))
        with pytest.raises(TopologyError):
            ComposedFabric([rack], [(0, 1)])
        with pytest.raises(TopologyError):
            ComposedFabric([rack, TorusTopology((4, 4))], [])
        with pytest.raises(TopologyError):
            ComposedFabric([rack, TorusTopology((2, 2))], [(0, 16)])
        with pytest.raises(TopologyError, match="different racks"):
            ComposedFabric([rack, TorusTopology((4, 4))], [(0, 1)])
        with pytest.raises(TopologyError):  # endpoint beyond hosts + switches
            ComposedFabric([rack, rack], [(0, 32)])

    def test_hand_wired_fabric(self):
        """A fabric no design emits: two racks, one direct cable and one
        switch, all on 1 Gb/s / 700 ns gateway cables."""
        rack = TorusTopology((2, 2))
        fabric = ComposedFabric(
            [rack, rack],
            [(0, 4), (1, 8), (5, 8)],
            n_switches=1,
            gateway_capacity_bps=gbps(1),
            gateway_latency_ns=700,
        )
        assert fabric.name == "composed(2xtorus(2x2))"
        assert fabric.n_hosts == 8 and fabric.n_nodes == 9
        # Hosts 0, 1 of rack 0 and 4, 5 of rack 1 are the cable endpoints.
        assert sorted({l.src for l in fabric.gateway_links() if l.src < 8}) == [0, 1, 4, 5]
        for link in fabric.gateway_links():
            assert (link.capacity_bps, link.latency_ns) == (gbps(1), 700)
        assert fabric.link(0, 1).latency_ns == rack.latency_ns
        for switch_only in (fabric.rack_of, fabric.local_id):
            with pytest.raises(TopologyError, match="switch"):
                switch_only(8)

    def test_three_rack_ring(self):
        fabric = _fabric(design="ring", rack_dims=(3, 3), n_racks=3, gateway_ports=2)
        assert fabric.n_racks == 3
        # Ring: every rack reaches every other.
        assert fabric.is_connected()


class TestSwitchedOption:
    def test_structure(self):
        topo = _fabric(design="switched", rack_dims=(4, 4), n_racks=2,
                       gateway_ports=2, bridge_capacity_bps=gbps(40))
        switch = topo.n_hosts
        assert topo.n_nodes == 33 and topo.n_switches == 1
        assert topo.degree(switch) == 4
        # Uplinks carry the switch capacity, fabric links the rack's.
        uplink = topo.link(switch, topo.neighbors(switch)[0])
        assert uplink.capacity_bps == gbps(40)
        assert topo.link(0, 1).capacity_bps == gbps(10)

    def test_cross_rack_reachability(self):
        topo = _fabric(design="switched", rack_dims=(3, 3), n_racks=2,
                       gateway_ports=2)
        assert topo.is_connected()
        # All cross-rack paths pass the switch.
        for path in enumerate_shortest_paths(topo, 0, 9 + 4, limit=20):
            assert topo.n_hosts in path

    def test_simulation_across_switch(self):
        from repro.sim import SimConfig, run_simulation
        from repro.workloads import FixedSize, poisson_trace

        topo = _fabric(design="switched", rack_dims=(3, 3), n_racks=2,
                       gateway_ports=2)
        trace = poisson_trace(topo, 30, 20_000, sizes=FixedSize(40_000), seed=3)
        metrics = run_simulation(topo, trace, SimConfig(stack="r2c2", seed=3))
        assert metrics.completion_rate() == 1.0


@pytest.mark.parametrize("design", SYNTH_DESIGNS)
def test_one_interface_for_every_design(design):
    """Every design — ``switched`` included — answers the whole composed
    interface on a fabric too big for the brute-force bisection."""
    topo = _fabric(design=design, rack_dims=(3, 3), n_racks=4, gateway_ports=2,
                   oversubscription=1e9, seed=2)
    assert isinstance(topo, ComposedFabric) and topo.n_nodes > 16
    assert bisection_bandwidth_bps(topo) > 0
    assert set(link_tiers(topo)) == {TIER_INTRA, TIER_GATEWAY}
    matrix = COMPOSED_PATTERNS["rack-shift"].matrix(topo)
    assert len(matrix) == topo.n_hosts
    assert all(src < topo.n_hosts and dst < topo.n_hosts for src, dst in matrix)
    for k in (2, 4):
        plan = partition_topology(topo, k)
        assert plan.assignment == partition_topology(topo, k, "rack").assignment
        assert plan.cut_edges()
        assert all(topo.is_gateway_link(link.link_id) for link in plan.cut_edges())


class TestFailureViews:
    @pytest.fixture
    def thin(self):
        """Flat fabric whose gateway cables are 1 Gb/s / 500 ns."""
        return _fabric(design="flat", rack_dims=(3, 3), n_racks=4, gateway_ports=2,
                       oversubscription=1e9, bridge_capacity_bps=gbps(1))

    @staticmethod
    def _params(topology):
        return {(l.src, l.dst): (l.capacity_bps, l.latency_ns) for l in topology.links}

    def test_views_keep_each_links_own_parameters(self, thin):
        before = self._params(thin)
        assert (gbps(1), 500) in before.values() and (gbps(10), 100) in before.values()
        dead = thin.gateway_links()[0]
        for view in (
            thin.without_links([(dead.src, dead.dst)]),
            thin.without_nodes([dead.src]),
        ):
            after = self._params(view)
            assert after and (dead.src, dead.dst) not in after
            assert all(before[edge] == params for edge, params in after.items())
            assert (gbps(1), 500) in after.values()
            # A view of a view still carries them.
            again = self._params(view.without_links([(0, 1)]))
            assert all(before[edge] == params for edge, params in again.items())

    def test_fault_injector_degrades_the_fabric_it_was_given(self, thin):
        degraded, failed = FaultInjector(seed=3).fail_links(thin, 2, symmetric=True)
        before = self._params(thin)
        after = self._params(degraded)
        assert set(after) == set(before) - set(failed)
        assert all(before[edge] == params for edge, params in after.items())

    def test_link_params_are_validated(self):
        for bad in ({(1, 0): (1e9, 5)}, {(0, 1): (0, 5)}, {(0, 1): (1e9, -1)}):
            with pytest.raises(TopologyError, match="link parameters"):
                Topology(2, [(0, 1)], link_params=bad)


def test_family_cannot_refragment():
    """Static guard: consumers ask the topology, they do not probe it.

    One ``getattr``/``hasattr`` per predicate is how three fabric
    representations grew; so is re-stamping ``_links`` from outside the
    base class."""
    probes = re.compile(
        r"""getattr\(\s*topology,\s*["'](is_|composed_|n_racks|rack_size|n_hosts)"""
        r"""|hasattr\(\s*topology,\s*["']rack_of["']\)"""
    )
    restamp = re.compile(r"\._links = ")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(SRC).as_posix()
        offenders += [f"{rel}: {m.group(0)}" for m in probes.finditer(text)]
        if rel != "topology/base.py" and restamp.search(text):
            offenders.append(f"{rel}: assigns ._links")
    assert not offenders, offenders
