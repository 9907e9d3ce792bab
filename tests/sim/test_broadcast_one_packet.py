"""A broadcast is one packet object routed by its tree.

``RackNetwork.inject`` resolves the tree once and stores its children table
in the packet's ``path``; every hop indexes that table and hands the same
object to each child's port.  These tests pin what that must keep: every
node sees the broadcast exactly once, the port sends are the tree's edges
(all through ``OutputPort.send_batched``, the fan-out's name), no hop
consults the FIB, and a dropped copy still reaches the §3.2 drop note and
retransmission.
"""

import pytest

from repro.broadcast import BroadcastFib
from repro.core.node import flow_spec
from repro.sim import KIND_BROADCAST, KIND_DATA, EventLoop, RackNetwork, SimConfig, SimPacket
from repro.sim.flows import SimFlow
from repro.sim.metrics import SimMetrics
from repro.sim.network import OutputPort
from repro.sim.packets import KIND_DROP_NOTE
from repro.sim.runner import _build_r2c2
from repro.topology import FoldedClosTopology, TorusTopology
from repro.workloads import FlowArrival

N_TREES = 4
TOPOLOGIES = {
    "torus3x3x3": TorusTopology((3, 3, 3)),
    "clos8": FoldedClosTopology(8, radix=4),
}


class _Recorder:
    def __init__(self):
        self.received = []

    def deliver(self, packet):
        self.received.append(packet)


@pytest.fixture
def port_sends(monkeypatch):
    """Every ``OutputPort.send`` / ``send_batched`` call, by entry name."""
    sends = []
    for name in ("send", "send_batched"):
        original = OutputPort.__dict__[name]

        def recording(port, packet, pending=None, _name=name, _original=original):
            sends.append((_name, port.src, port.dst, packet))
            return _original(port, packet, pending)

        monkeypatch.setattr(OutputPort, name, recording)
    return sends


def _idle_network(topology):
    loop = EventLoop()
    fib = BroadcastFib(topology, n_trees=N_TREES)
    network = RackNetwork(loop, topology, fib=fib)
    recorders = [_Recorder() for _ in topology.nodes()]
    network.stack_at[:] = recorders
    return loop, network, fib, recorders


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_node_gets_the_one_object_over_the_tree_edges(name, port_sends):
    topology = TOPOLOGIES[name]
    for src in topology.nodes():
        for tree_id in range(N_TREES):
            loop, network, fib, recorders = _idle_network(topology)
            port_sends.clear()
            packet = SimPacket(KIND_BROADCAST, 7, src, 0, 3, 16, tree_id=tree_id)
            assert network.inject(src, packet)
            # Resolved once, at injection: with the FIB gone no hop can
            # look the tree up again, and the broadcast still completes.
            assert packet.path is fib.tree(src, tree_id).children_table
            network._fib = None
            loop.run()
            assert all(r.received == [packet] for r in recorders), (src, tree_id)
            assert all(r.received[0] is packet for r in recorders)
            edges = sorted((forwarder, receiver) for _, forwarder, receiver, _ in port_sends)
            assert edges == sorted(fib.delivery_order(src, tree_id))
            assert {entry for entry, *_ in port_sends} == {"send_batched"}
            assert all(sent is packet for *_, sent in port_sends)


def test_a_dropped_copy_is_noted_to_its_source_and_resent_on_the_next_tree():
    """§3.2 with one packet per broadcast: the drop note still names the
    original ``src`` / ``seq``, and the source re-sends on the next tree."""
    topology = TorusTopology((3, 3, 3))
    src, limit = 0, 9000
    loop = EventLoop()
    flow = SimFlow(FlowArrival(0, src, 13, 1_000_000, 0))
    config = SimConfig(stack="r2c2", queue_limit_bytes=limit)
    network, _ = _build_r2c2(topology, loop, {0: flow}, SimMetrics(), config, None)
    source = network.stack_at[src]
    recorders = {node: _Recorder() for node in topology.nodes() if node != src}
    for node, recorder in recorders.items():
        network.stack_at[node] = recorder

    tree_id = src % config.n_broadcast_trees  # a stack's first tree
    forwarder, receiver = next(
        edge for edge in network.fib.delivery_order(src, tree_id) if edge[0] != src
    )
    # Keep forwarder -> receiver busy with a full queue behind it: the copy
    # for the receiver overflows it.
    port = network.port(forwarder, receiver)
    for seq in range(2):
        port.send(SimPacket(KIND_DATA, 99, forwarder, receiver, seq, limit, path=(forwarder, receiver)))

    injected = []
    inject = network.inject

    def recording_inject(node, packet):
        injected.append((node, packet.kind, packet.src, packet.seq, packet.tree_id))
        return inject(node, packet)

    network.inject = recording_inject
    # The flow's start broadcast alone (start_flow would send data too).
    source._announce(flow, source.r2c2.reannounce(flow_spec(flow, 0), 0))
    loop.run_until(20_000)

    assert port.drops >= 1
    assert injected[0] == (src, KIND_BROADCAST, src, 0, tree_id)
    # The drop note, from the forwarder that dropped the copy to the source.
    assert injected[1] == (forwarder, KIND_DROP_NOTE, forwarder, 0, 0)
    # The retransmission: same broadcast seq, the next tree.
    assert injected[2] == (src, KIND_BROADCAST, src, 0, (tree_id + 1) % config.n_broadcast_trees)
    assert source.broadcast_retransmissions >= 1
    heard = {
        node: [p.tree_id for p in recorder.received if p.kind == KIND_BROADCAST]
        for node, recorder in recorders.items()
    }
    assert all(heard.values())  # the re-sent broadcast reached every node
    assert tree_id not in heard[receiver]  # ... including the one cut off
