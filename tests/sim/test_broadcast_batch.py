"""Broadcast copies that land at one instant are one engine event.

The batch must deliver every copy exactly where its own ``(time, prio,
seq)`` delivery event would have run: after the instant's timers, in link
priority order, interleaved with the unicast deliveries of that instant.
Node 4 of a 3x3 torus has the in-links 1->4 < 3->4 < 5->4 < 7->4 (link
priority grows with the sender), which is enough to put a data packet
between two copies and to queue a third copy behind data; a copy on 0->1
lands at the same instant at another node.
"""

from repro.sim import KIND_BROADCAST, KIND_DATA, EventLoop, RackNetwork, SimPacket
from repro.sim.probe import SimProbe
from repro.topology import TorusTopology
from repro.types import gbps, transmission_time_ns
from repro.validation import InvariantAuditor

TOPO = TorusTopology((3, 3), capacity_bps=gbps(10))
NODE = 4
SIZE = 64
#: every copy is a leaf at every node: nothing forwards.
LEAVES = tuple(() for _ in TOPO.nodes())


class _Log:
    def __init__(self, loop, node, log):
        self._loop, self._node, self._log = loop, node, log

    def deliver(self, packet):
        self._log.append((self._loop.now, self._node, packet.flow_id))


def _copy(label):
    return SimPacket(KIND_BROADCAST, label, 0, -1, 0, SIZE, path=LEAVES)


def _data(label, src):
    return SimPacket(KIND_DATA, label, src, NODE, 0, SIZE, path=(src, NODE))


def _network(probe=None):
    loop = EventLoop()
    if probe is not None:
        probe = probe(loop)
    network = RackNetwork(loop, TOPO, probe=probe)
    log = []
    network.stack_at[:] = [_Log(loop, node, log) for node in TOPO.nodes()]
    return loop, network, log


def _offer(network, receive_b=False):
    """At t=0: copy A on 1->4, data D1 on 3->4, copy B on 5->4, data D2 and
    then copy C on 7->4 (C waits for D2's serialization), copy E on 0->1."""
    network.port(1, NODE).send_batched(_copy("A"))
    assert network.port(3, NODE).send(_data("D1", 3))
    if receive_b:
        # B crossing a shard cut instead of its own port.
        network.receive(_arrival(), 5, NODE, _copy("B"))
    else:
        network.port(5, NODE).send_batched(_copy("B"))
    assert network.port(7, NODE).send(_data("D2", 7))
    network.port(7, NODE).send_batched(_copy("C"))
    network.port(0, 1).send_batched(_copy("E"))


def _serialization():
    return transmission_time_ns(SIZE, gbps(10))


def _arrival():
    link = next(l for l in TOPO.links if l.src == 1 and l.dst == NODE)
    return _serialization() + link.latency_ns


#: (time, link priority) order: D1's link sorts between A's and B's; C
#: starts when D2's serialization ends and lands one serialization later.
EXPECTED = [
    (_arrival(), 1, "E"),
    (_arrival(), NODE, "A"),
    (_arrival(), NODE, "D1"),
    (_arrival(), NODE, "B"),
    (_arrival(), NODE, "D2"),
    (_arrival() + _serialization(), NODE, "C"),
]
#: D1 and D2 are an event each; the batch of E, A and B runs once before
#: D1 and once more, re-scheduled at B's key, after it; port 7->4's finish
#: starts C; C's instant is a batch of its own (one event per copy: 7).
EVENTS = 6


def test_copies_follow_time_then_link_prio():
    loop, network, log = _network()
    _offer(network)
    loop.run_batch()
    assert log == EXPECTED
    assert loop.events_processed == EVENTS


def test_an_audited_run_sees_the_same_order_and_events():
    """A probe sends every copy through the queue path and the auditor
    checks each event's ``(time, prio, seq)`` against the last one."""
    auditor = InvariantAuditor(strict=True)
    loop, network, log = _network(lambda loop: SimProbe(loop, auditor=auditor))
    _offer(network)
    loop.run()
    assert log == EXPECTED
    assert loop.events_processed == EVENTS
    report = auditor.final_check(drained=True)
    assert report.ok and report.events == EVENTS
    assert report.packets_arrived == report.packets_propagated == len(EXPECTED)


def test_a_copy_from_another_shard_joins_the_batch():
    loop, network, log = _network()
    _offer(network, receive_b=True)
    loop.run_batch()
    assert log == EXPECTED
    assert loop.events_processed == EVENTS
