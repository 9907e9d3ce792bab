"""Property-based tests (hypothesis) on core invariants."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.routing import spray_link_weights
from repro.routing.ecmp import EcmpSinglePath
from repro.topology import TorusTopology, count_shortest_paths, is_minimal_path
from repro.wire import BroadcastPacket, DataPacket, pack_route, unpack_route
from repro.wire.packets import EVENT_FLOW_FINISH, EVENT_FLOW_START

# Shared small topology: hypothesis runs many examples, keep each cheap.
_TOPO = TorusTopology((4, 4))
_PROVIDER = WeightProvider(_TOPO)

node_ids = st.integers(min_value=0, max_value=_TOPO.n_nodes - 1)


class TestTopologyProperties:
    @given(src=node_ids, dst=node_ids)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry_and_triangle(self, src, dst):
        d = _TOPO.distance(src, dst)
        assert d == _TOPO.distance(dst, src)
        assert (d == 0) == (src == dst)
        for mid in (0, 5, 10):
            assert d <= _TOPO.distance(src, mid) + _TOPO.distance(mid, dst)

    @given(src=node_ids, dst=node_ids)
    @settings(max_examples=40, deadline=None)
    def test_path_count_positive_and_consistent(self, src, dst):
        count = count_shortest_paths(_TOPO, src, dst)
        assert count >= 1
        # Symmetric topology: reverse direction has the same count.
        assert count == count_shortest_paths(_TOPO, dst, src)


class TestRoutingProperties:
    @given(src=node_ids, dst=node_ids)
    @settings(max_examples=40, deadline=None)
    def test_spray_weights_conservation(self, src, dst):
        if src == dst:
            return
        weights = spray_link_weights(_TOPO, src, dst)
        assert all(0 <= w <= 1 + 1e-9 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(_TOPO.distance(src, dst))
        out_of_src = sum(
            w for link, w in weights.items() if _TOPO.links[link].src == src
        )
        assert out_of_src == pytest.approx(1.0)

    @given(src=node_ids, dst=node_ids, flow_id=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_ecmp_deterministic_minimal(self, src, dst, flow_id):
        if src == dst:
            return
        ecmp = EcmpSinglePath(_TOPO)
        path = ecmp.flow_path(src, dst, flow_id)
        assert is_minimal_path(_TOPO, path)
        assert path == ecmp.flow_path(src, dst, flow_id)


class TestWaterfillProperties:
    @given(
        seeds=st.integers(0, 10**6),
        n_flows=st.integers(1, 12),
        headroom=st.floats(0.0, 0.3),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_feasibility_and_positivity(self, seeds, n_flows, headroom):
        rng = random.Random(seeds)
        flows = []
        for i in range(n_flows):
            src = rng.randrange(_TOPO.n_nodes)
            dst = rng.randrange(_TOPO.n_nodes - 1)
            if dst >= src:
                dst += 1
            flows.append(
                FlowSpec(
                    i,
                    src,
                    dst,
                    protocol=rng.choice(["rps", "dor", "vlb"]),
                    weight=rng.choice([0.5, 1.0, 2.0]),
                )
            )
        alloc = waterfill(_TOPO, flows, _PROVIDER, headroom=headroom)
        # Feasibility: no link above its adjusted capacity.
        assert (
            alloc.link_load_bps <= alloc.link_capacity_bps * (1 + 1e-6)
        ).all()
        # No starvation under per-flow weights.
        assert all(r > 0 for r in alloc.rates_bps.values())

    @given(seeds=st.integers(0, 10**6), scale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_weight_scale_invariance(self, seeds, scale):
        rng = random.Random(seeds)
        flows = [
            FlowSpec(i, i, (i + 5) % 16, "rps", weight=1.0 + (i % 3))
            for i in range(6)
        ]
        scaled = [
            FlowSpec(
                f.flow_id, f.src, f.dst, f.protocol, weight=f.weight * scale
            )
            for f in flows
        ]
        a = waterfill(_TOPO, flows, _PROVIDER)
        b = waterfill(_TOPO, scaled, _PROVIDER)
        for fid in a.rates_bps:
            assert a.rates_bps[fid] == pytest.approx(b.rates_bps[fid], rel=1e-6)


class TestWireProperties:
    @given(
        ports=st.lists(st.integers(0, 7), min_size=0, max_size=42),
    )
    @settings(max_examples=100, deadline=None)
    def test_route_roundtrip(self, ports):
        assert unpack_route(pack_route(ports), len(ports)) == ports

    @given(
        flow_id=st.integers(0, 2**32 - 1),
        src=st.integers(0, 2**16 - 1),
        dst=st.integers(0, 2**16 - 1),
        seq=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=200),
        ridx=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_data_packet_roundtrip(self, flow_id, src, dst, seq, payload, ridx):
        packet = DataPacket(
            flow_id=flow_id,
            src=src,
            dst=dst,
            seq=seq,
            route_ports=(1, 2, 3),
            route_index=ridx,
            payload=payload,
        )
        assert DataPacket.decode(packet.encode()) == packet

    @given(
        event=st.sampled_from([EVENT_FLOW_START, EVENT_FLOW_FINISH]),
        src=st.integers(0, 2**16 - 1),
        dst=st.integers(0, 2**16 - 1),
        flow_id=st.integers(0, 2**32 - 1),
        weight_q=st.integers(1, 255),
        priority=st.integers(0, 255),
        # 0 Mbps is no FlowSpec's demand: it rides the 1 Mbps floor
        # (tests/wire/test_control_formats.py pins that).
        demand_mbps=st.one_of(st.none(), st.integers(1, (1 << 24) - 2)),
        tree=st.integers(0, 15),
        rp=st.integers(0, 15),
    )
    @settings(max_examples=80, deadline=None)
    def test_broadcast_roundtrip(
        self, event, src, dst, flow_id, weight_q, priority, demand_mbps, tree, rp
    ):
        packet = BroadcastPacket(
            event=event,
            src=src,
            dst=dst,
            flow_id=flow_id,
            weight=weight_q / 16.0,
            priority=priority,
            demand_bps=math.inf if demand_mbps is None else demand_mbps * 1e6,
            tree_id=tree,
            protocol_id=rp,
        )
        decoded = BroadcastPacket.decode(packet.encode())
        assert decoded == packet

    @given(data=st.binary(min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_misparse_silently(self, data):
        # Either it parses as a broadcast (type+checksum happen to match) or
        # it raises WireFormatError — never an unrelated exception.
        from repro.errors import WireFormatError

        try:
            BroadcastPacket.decode(data)
        except WireFormatError:
            pass
