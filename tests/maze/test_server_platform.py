"""Tests for Maze servers and the platform: byte-level forwarding."""

import pytest

from repro.broadcast import BroadcastFib
from repro.errors import EmulationError
from repro.maze import MazePlatform, run_emulation
from repro.topology import TorusTopology
from repro.types import gbps
from repro.wire.packets import BroadcastPacket, DataPacket, EVENT_FLOW_START
from repro.workloads import FixedSize, FlowArrival, poisson_trace


def encoded_packet(topology, path, flow_id=1, seq=0, payload=b"x" * 100):
    """A real encoded data packet ready for injection at path[0].

    route_index starts at 1 because handing the packet to the first hop's
    ring consumes hop 0.
    """
    ports = tuple(
        topology.port_of(path[i], path[i + 1]) for i in range(len(path) - 1)
    )
    return DataPacket(
        flow_id=flow_id,
        src=path[0],
        dst=path[-1],
        seq=seq,
        route_ports=ports,
        route_index=1,
        payload=payload,
    ).encode()


class TestForwarding:
    def test_multi_hop_delivery(self, torus2d):
        platform = MazePlatform(torus2d, step_ns=100)
        delivered = []
        platform.server(5).on_local_delivery = delivered.append
        path = [0, 1, 5]
        data = encoded_packet(torus2d, path)
        platform.server(0).app_send(data, [1])
        platform.run_for(20_000)
        assert len(delivered) == 1
        decoded = DataPacket.decode(delivered[0])
        assert decoded.dst == 5
        assert decoded.route_index == len(path) - 1

    def test_checksum_survives_forwarding(self, torus2d):
        # Forwarders mutate the route index in place; the checksum must
        # still verify at the destination (it excludes that byte).
        platform = MazePlatform(torus2d, step_ns=100)
        delivered = []
        platform.server(10).on_local_delivery = delivered.append
        data = encoded_packet(torus2d, [0, 1, 2, 6, 10])
        platform.server(0).app_send(data, [1])
        platform.run_for(50_000)
        DataPacket.decode(delivered[0])

    def test_zero_copy_slot_freed_after_send(self, torus2d):
        platform = MazePlatform(torus2d, step_ns=100)
        platform.server(1).on_local_delivery = lambda data: None
        server0 = platform.server(0)
        data = encoded_packet(torus2d, [0, 1])
        server0.app_send(data, [1])
        assert server0.app_dr.used_slots == 1
        platform.run_for(10_000)
        assert server0.app_dr.used_slots == 0

    def test_broadcast_reaches_every_server(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2, seed=0)
        platform = MazePlatform(torus2d, fib=fib, step_ns=100)
        received = [[] for _ in torus2d.nodes()]
        for node in torus2d.nodes():
            platform.server(node).on_local_delivery = received[node].append
        packet = BroadcastPacket(
            event=EVENT_FLOW_START, src=3, dst=7, flow_id=1, tree_id=1
        ).encode()
        children = list(fib.next_hops(3, 3, 1))
        platform.server(3).app_send(packet, children)
        platform.run_for(20_000)
        for node in torus2d.nodes():
            if node != 3:
                assert len(received[node]) == 1, f"node {node}"

    def test_unknown_incoming_link_raises(self, torus2d):
        platform = MazePlatform(torus2d, step_ns=100)
        with pytest.raises(EmulationError):
            platform.server(0).rdma_write(10, b"\x10" + b"\x00" * 34)

    def test_app_send_requires_hops(self, torus2d):
        platform = MazePlatform(torus2d, step_ns=100)
        with pytest.raises(EmulationError):
            platform.server(0).app_send(b"x", [])


class TestLinkRate:
    def test_serialization_respects_capacity(self):
        # One packet per serialization time: 1000 bytes at 1 Gbps = 8 us.
        topo = TorusTopology((2, 2), capacity_bps=gbps(1))
        platform = MazePlatform(topo, step_ns=1000)
        count = []
        platform.server(1).on_local_delivery = count.append
        for seq in range(10):
            platform.server(0).app_send(
                encoded_packet(topo, [0, 1], seq=seq, payload=b"y" * 965), [1]
            )
        platform.run_for(40_000)  # 40 us: about 5 packets of 8 us each
        assert 3 <= len(count) <= 6
        platform.run_for(60_000)
        assert len(count) == 10


class TestEmulationRunner:
    def test_small_run_completes(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(5))
        trace = poisson_trace(
            topo, 10, 50_000, sizes=FixedSize(100_000), seed=4
        )
        metrics = run_emulation(topo, trace, seed=4)
        assert metrics.completion_rate() == 1.0
        assert metrics.broadcast_bytes > 0
        for flow in metrics.flows:
            assert flow.bytes_received == flow.size_bytes

    def test_rejects_self_flows(self, torus2d):
        with pytest.raises(EmulationError):
            run_emulation(torus2d, [FlowArrival(0, 1, 1, 100, 0)])

    def test_rejects_empty_trace(self, torus2d):
        with pytest.raises(EmulationError):
            run_emulation(torus2d, [])
