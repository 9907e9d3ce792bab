"""repro.topology.synth: fabric synthesis, budgets, determinism, tiers."""

import json
import subprocess
import sys

import pytest

from repro.analysis import (
    TIER_GATEWAY,
    TIER_INTRA,
    link_tiers,
    saturation_throughput,
    tiered_channel_loads,
)
from repro.errors import TopologyError
from repro.routing.base import make_protocol
from repro.topology import (
    ComposedFabric,
    FabricSpec,
    SYNTH_DESIGNS,
    TorusTopology,
    bisection_bandwidth_bps,
    synthesize,
)
from repro.topology.partition import partition_topology
from repro.workloads import STANDARD_PATTERNS, RackShiftPattern

pytestmark = pytest.mark.synth

SMALL = dict(rack="torus", rack_dims=(2, 2), n_racks=4, gateway_ports=2,
             oversubscription=64.0)


def _spec(**overrides):
    merged = dict(SMALL)
    merged.update(overrides)
    return FabricSpec(**merged)


class TestSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(design="fattree", max_cost=5000.0, seed=7)
        clone = FabricSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("design", SYNTH_DESIGNS)
    def test_every_design_round_trips_its_fingerprint(self, design):
        spec = _spec(design=design, bridge_capacity_bps=40e9, max_cost=9000.0)
        assert FabricSpec.from_dict(spec.to_dict()).fingerprint() == spec.fingerprint()
        via_json = FabricSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert via_json.fingerprint() == spec.fingerprint()

    def test_number_spelling_does_not_move_the_fingerprint(self):
        # A JSON round trip or a scenario param may spell 64.0 as 64 and
        # 500 as 500.0: from_dict coerces each field to its declared type.
        ints = FabricSpec.from_dict(
            {**SMALL, "oversubscription": 64, "bridge_latency_ns": 500,
             "switch_cost": 300, "bridge_capacity_bps": 40_000_000_000}
        )
        floats = FabricSpec.from_dict(
            {**SMALL, "oversubscription": 64.0, "bridge_latency_ns": 500.0,
             "switch_cost": 300.0, "bridge_capacity_bps": 40e9}
        )
        assert ints == floats
        assert ints.fingerprint() == floats.fingerprint()
        assert isinstance(ints.oversubscription, float)
        assert isinstance(floats.bridge_latency_ns, int)

    def test_from_dict_ignores_unknown_keys_and_keeps_defaults(self):
        spec = FabricSpec.from_dict({"design": "ring", "protocol": "hier_wlb"})
        assert spec == FabricSpec(design="ring")

    def test_fingerprint_distinguishes_specs(self):
        assert _spec(seed=0).fingerprint() != _spec(seed=1).fingerprint()
        assert _spec().fingerprint() != _spec(n_racks=5).fingerprint()

    def test_validation(self):
        with pytest.raises(TopologyError, match="unknown fabric design"):
            FabricSpec(design="mobius")
        with pytest.raises(TopologyError, match="two racks"):
            _spec(n_racks=1)
        with pytest.raises(TopologyError, match="port budget"):
            _spec(gateway_ports=0)

    def test_node_count_arithmetic(self):
        assert _spec().n_nodes == 16
        assert FabricSpec(rack="hypercube", rack_dims=(3,), n_racks=4).rack_size == 8


class TestDesigns:
    @pytest.mark.parametrize("design", SYNTH_DESIGNS)
    def test_every_design_synthesizes(self, design):
        fabric = synthesize(_spec(design=design))
        assert fabric.report["budget_ok"] is True
        assert fabric.report["n_racks"] == 4
        assert fabric.report["rack_size"] == 4
        assert fabric.bridges
        assert fabric.topology.n_nodes >= 16

    @pytest.mark.parametrize("design", ("flat", "ring"))
    def test_direct_designs_emit_multirack(self, design):
        fabric = synthesize(_spec(design=design))
        topo = fabric.topology
        assert isinstance(topo, ComposedFabric) and topo.n_switches == 0
        # The emitted bridge list is exactly the fabric's wiring: every
        # bridge maps to a pair of directed links via the id arithmetic.
        for rack_a, local_a, rack_b, local_b in fabric.bridges:
            src = topo.global_id(rack_a, local_a)
            dst = topo.global_id(rack_b, local_b)
            assert dst in topo.neighbors(src)
            assert src in topo.neighbors(dst)

    def test_flat_is_regular_on_racks(self):
        fabric = synthesize(_spec(design="flat", n_racks=6, gateway_ports=3))
        per_rack = {r: 0 for r in range(6)}
        for rack_a, _la, rack_b, _lb in fabric.bridges:
            per_rack[rack_a] += 1
            per_rack[rack_b] += 1
        assert set(per_rack.values()) == {3}

    def test_flat_rejects_impossible_degree(self):
        # degree >= n_racks: no simple regular graph exists.
        with pytest.raises(TopologyError):
            synthesize(_spec(design="flat", n_racks=3, gateway_ports=4))

    def test_oversubscription_budget_enforced(self):
        with pytest.raises(TopologyError, match="oversubscription"):
            synthesize(_spec(design="ring", oversubscription=1.0))

    def test_cost_budget_enforced(self):
        with pytest.raises(TopologyError, match="cost"):
            synthesize(_spec(design="fattree", oversubscription=1e9,
                             max_cost=10.0))

    def test_fattree_minimizes_cost(self):
        cheap = synthesize(_spec(design="fattree", oversubscription=1e9))
        assert cheap.report["cost"] <= 5000
        assert cheap.report["switches"] >= 1


class TestFatTreeFabric:
    """The ``fattree`` design: a ComposedFabric with edge and core switches."""

    @pytest.fixture()
    def fabric(self):
        return synthesize(_spec(design="fattree", oversubscription=1e9))

    def test_node_id_arithmetic(self, fabric):
        topo = fabric.topology
        assert isinstance(topo, ComposedFabric)
        assert topo.n_hosts == 16
        assert topo.n_switches == fabric.report["n_edge"] + fabric.report["n_core"]
        assert topo.n_nodes == 16 + topo.n_switches
        for node in topo.hosts():
            assert topo.rack_of(node) == node // topo.rack_size
            assert topo.local_id(node) == node % topo.rack_size
        for node in range(topo.n_hosts, topo.n_nodes):
            with pytest.raises(TopologyError):
                topo.local_id(node)
            with pytest.raises(TopologyError):
                topo.rack_of(node)

    def test_gateway_links_are_the_switch_tier(self, fabric):
        topo = fabric.topology
        gateway = [l for l in topo.links if topo.is_gateway_link(l.link_id)]
        assert gateway
        for link in gateway:
            assert max(link.src, link.dst) >= topo.n_hosts  # a switch end

    def test_composed_bisection_hook(self, fabric):
        topo = fabric.topology
        assert bisection_bandwidth_bps(topo) == topo.composed_bisection_bps()
        assert topo.composed_bisection_bps() > 0


class TestDeterminism:
    def test_same_spec_same_artifact(self):
        a = synthesize(_spec(design="flat", seed=3))
        b = synthesize(_spec(design="flat", seed=3))
        assert a.fingerprint == b.fingerprint
        assert a.bridges == b.bridges
        assert json.dumps(a.describe(), sort_keys=True) == json.dumps(
            b.describe(), sort_keys=True
        )

    def test_different_seed_different_wiring(self):
        fingerprints = {
            synthesize(_spec(design="flat", n_racks=8, gateway_ports=3,
                             seed=seed)).fingerprint
            for seed in range(4)
        }
        assert len(fingerprints) > 1

    def test_cross_process_fingerprint_stable(self):
        """Two independent interpreters must synthesize identical bytes."""
        script = (
            "from repro.topology import FabricSpec, synthesize\n"
            "import json\n"
            "fabric = synthesize(FabricSpec(design='flat', rack='torus',\n"
            "    rack_dims=(2, 2), n_racks=6, gateway_ports=3, seed=11))\n"
            "print(json.dumps({'fp': fabric.fingerprint,\n"
            "                  'bridges': [list(b) for b in fabric.bridges]},\n"
            "                 sort_keys=True))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        local = synthesize(_spec(design="flat", n_racks=6, gateway_ports=3,
                                 seed=11))
        assert json.loads(outputs[0])["fp"] == local.fingerprint


class TestRackPartition:
    @pytest.mark.parametrize("design", ("flat", "ring"))
    @pytest.mark.parametrize("k", (2, 4))
    def test_rack_cut_crosses_only_gateways(self, design, k):
        topo = synthesize(_spec(design=design, n_racks=4, seed=2)).topology
        plan = partition_topology(topo, k)
        # auto strategy resolves to the rack-aligned cut on multi-rack fabrics
        assert plan.assignment == partition_topology(topo, k, "rack").assignment
        for link in plan.cut_edges():
            assert topo.is_gateway_link(link.link_id)

    def test_rack_cut_lookahead_is_gateway_latency(self):
        topo = synthesize(_spec(design="flat", seed=2)).topology
        plan = partition_topology(topo, 2)
        assert plan.lookahead_ns() == 500

    def test_more_shards_than_racks_falls_back(self):
        topo = synthesize(_spec(design="flat", n_racks=4, seed=2)).topology
        plan = partition_topology(topo, 8)
        assert len(plan.shards()) == 8
        assert all(plan.nodes_of(shard) for shard in range(8))


class TestTieredLoads:
    def test_tiers_partition_the_links(self):
        topo = synthesize(_spec(design="flat", seed=2)).topology
        tiers = link_tiers(topo)
        assert len(tiers) == topo.n_links
        assert set(tiers) == {TIER_INTRA, TIER_GATEWAY}
        n_gateway = sum(1 for t in tiers if t == TIER_GATEWAY)
        assert n_gateway == len(topo.gateway_links())  # both directions

    def test_gateway_is_the_bottleneck_under_rack_shift(self):
        topo = synthesize(_spec(design="ring")).topology
        protocol = make_protocol("hier_wlb", topo)
        result = tiered_channel_loads(
            protocol, RackShiftPattern().matrix(topo)
        )
        assert result["bottleneck"] == TIER_GATEWAY
        gateway = result["tiers"][TIER_GATEWAY]
        intra = result["tiers"][TIER_INTRA]
        assert gateway["saturation"] < intra["saturation"]
        assert result["saturation"] == gateway["saturation"]

    def test_single_tier_matches_plain_saturation(self):
        topo = TorusTopology((4, 4))
        protocol = make_protocol("wlb", topo)
        matrix = STANDARD_PATTERNS["uniform"].matrix(topo)
        tiered = tiered_channel_loads(protocol, matrix)
        assert set(tiered["tiers"]) == {TIER_INTRA}
        assert tiered["saturation"] == pytest.approx(
            saturation_throughput(protocol, matrix)
        )
