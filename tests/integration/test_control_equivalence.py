"""The simulator's shared-control-plane optimization must be equivalent to
running per-node controllers fed by real broadcast deliveries.

Every node builds its table from the same broadcast stream, so once
deliveries quiesce all tables agree, and the water-fill — a deterministic
function of the table — produces identical allocations everywhere.  This is
the invariant that justifies computing it once in the simulator.
"""

import pytest

from repro.core import Rack
from repro.sim import EventLoop, KIND_BROADCAST, RackNetwork, SimPacket


class _CollectingNodeStack:
    """Minimal per-node stack: applies every broadcast to its own node."""

    def __init__(self, node, rack_node):
        self.node = node
        self.rack_node = rack_node

    def deliver(self, packet):
        assert packet.kind == KIND_BROADCAST
        if packet.src != self.node:
            self.rack_node.handle_broadcast(packet.payload)


class TestControlEquivalence:
    def test_broadcast_fed_tables_converge(self, torus2d):
        # Drive real 16-byte packets through the simulated fabric and feed
        # each node's control plane only from its own deliveries.
        rack = Rack(torus2d)  # provides per-node R2C2Node objects
        loop = EventLoop()
        net = RackNetwork(loop, torus2d, fib=rack.fib)
        for node in torus2d.nodes():
            net.stack_at[node] = _CollectingNodeStack(node, rack.nodes[node])

        # Start flows via the node API but deliver the announcements as
        # real packets rather than Rack's instant delivery.
        events = [
            rack.nodes[0].start_flow(1, 5, protocol="rps"),
            rack.nodes[3].start_flow(2, 9, protocol="vlb", weight=2.0),
            rack.nodes[7].start_flow(3, 1, priority=1),
        ]
        for sender, data in zip((0, 3, 7), events):
            packet = SimPacket(
                kind=KIND_BROADCAST,
                flow_id=0,
                src=sender,
                dst=0,
                seq=0,
                size_bytes=len(data),
                tree_id=0,
                payload=data,
            )
            net.inject(sender, packet)
        loop.run()

        assert rack.tables_consistent()
        allocations = [
            node.controller.recompute(0).rates_bps for node in rack.nodes
        ]
        reference = allocations[0]
        for allocation in allocations[1:]:
            assert set(allocation) == set(reference)
            for flow_id in reference:
                assert allocation[flow_id] == pytest.approx(reference[flow_id])

    def test_senders_rate_limit_only_their_flows(self, torus2d):
        rack = Rack(torus2d)
        rack.start_flow(0, 5)
        rack.start_flow(3, 9)
        rack.recompute_all()
        assert set(rack.nodes[0].rates()) == {0}
        assert set(rack.nodes[3].rates()) == {1}
        assert rack.nodes[8].rates() == {}
