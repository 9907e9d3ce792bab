"""One output port, driven directly: the direct start of an idle FIFO port
against the queue path, drops at a finite limit, the ``send_batched``
pending items, and PFQ's ``kick`` after back-pressure."""

import pytest

from repro.sim import KIND_DATA, EventLoop, FifoQueue, PerFlowRoundRobin, SimPacket
from repro.sim.network import OutputPort
from repro.types import transmission_time_ns

CAPACITY_BPS = 10e9
LATENCY_NS = 100


class _QueueProbe:
    """A probe that observes nothing; attaching it keeps the queue path."""

    def port_accept(self, port, packet):
        pass

    def port_drop(self, port, packet):
        pass

    def tx_start(self, port, packet, duration_ns):
        pass

    def tx_finish(self, port, packet):
        pass

    def wire_loss(self, port, packet):
        pass


def _packet(seq, size=1500, flow=1):
    return SimPacket(KIND_DATA, flow, 0, 1, seq, size, path=(0, 1))


def _port(loop, queue_path, limit_bytes=None, queue=None):
    """``(port, deliveries, drops, enqueues)`` for one 0 -> 1 port."""
    deliveries, drops, enqueues = [], [], []
    queue = FifoQueue(limit_bytes) if queue is None else queue
    enqueue = queue.enqueue

    def counting_enqueue(packet):
        enqueues.append(packet.seq)
        return enqueue(packet)

    queue.enqueue = counting_enqueue
    port = OutputPort(
        loop, 0, 1, CAPACITY_BPS, LATENCY_NS, queue,
        deliver=lambda packet: deliveries.append((loop.now, packet.seq)),
        on_drop=lambda packet: drops.append(packet.seq),
        probe=_QueueProbe() if queue_path else None,
    )
    return port, deliveries, drops, enqueues


def _stats(port, deliveries, drops):
    return (
        port.bytes_sent, port.packets_sent, port.busy_ns,
        port.max_occupancy_bytes, port.drops, drops, deliveries,
    )


def _idle_sends(loop, port):
    for seq in range(3):
        assert port.send(_packet(seq))
        loop.run()


def _back_to_back(loop, port):
    # 3000-byte limit: one packet on the wire, two queued, the fourth dropped
    results = [port.send(_packet(seq)) for seq in range(4)]
    assert results == [True, True, True, False]
    loop.run()
    assert port.send(_packet(4, size=40))  # idle again: a small one after
    loop.run()


def _batched(loop, port):
    for seq in range(3):
        pending = []
        assert port.send_batched(_packet(seq, size=16), pending)
        loop.schedule_batch(pending[0][0], [fire for _, fire in pending])
        loop.run()


@pytest.mark.parametrize("drive", [_idle_sends, _back_to_back, _batched])
def test_direct_start_matches_the_queue_path(drive):
    runs = {}
    for queue_path in (False, True):
        loop = EventLoop()
        port, deliveries, drops, enqueues = _port(loop, queue_path, limit_bytes=3000)
        drive(loop, port)
        runs[queue_path] = _stats(port, deliveries, drops) + (loop.now, loop.events_processed)
        # the queue path enqueues every packet; the direct path only those
        # that find the transmitter busy
        if queue_path:
            assert len(enqueues) == port.packets_sent + port.drops
        else:
            assert len(enqueues) < port.packets_sent + port.drops
    assert runs[False] == runs[True]
    assert runs[False][1] > 0


@pytest.mark.parametrize("queue_path", [False, True])
def test_oversized_packet_to_an_idle_port_is_dropped(queue_path):
    loop = EventLoop()
    port, deliveries, drops, _ = _port(loop, queue_path, limit_bytes=100)
    assert not port.send(_packet(7))
    loop.run()
    assert (port.drops, drops, deliveries) == (1, [7], [])
    assert (port.packets_sent, port.bytes_sent, port.max_occupancy_bytes) == (0, 0, 0)
    assert not port.busy
    assert port.send(_packet(8, size=100))  # exactly the limit still fits
    loop.run()
    assert [seq for _, seq in deliveries] == [8]


@pytest.mark.parametrize("queue_path", [False, True])
def test_pending_items_are_duration_and_zero_argument_callable(queue_path):
    loop = EventLoop()
    port, deliveries, _, _ = _port(loop, queue_path)
    pending = []
    assert port.send_batched(_packet(0, size=16), pending)
    assert loop.pending() == 0  # nothing scheduled: the caller does it
    [(duration, fire)] = pending
    assert type(duration) is int
    assert duration == transmission_time_ns(16, CAPACITY_BPS)
    fire()  # zero arguments: the finish schedules the delivery
    loop.run()
    assert deliveries == [(LATENCY_NS, 0)]
    assert not port.busy


def test_kick_restarts_a_port_after_pfq_resume():
    loop = EventLoop()
    queue = PerFlowRoundRobin()
    port, deliveries, _, _ = _port(loop, False, queue=queue)
    queue.pause(1)
    assert port.send(_packet(0, flow=1))
    assert not port.busy  # the only queued flow is paused
    port.kick()
    assert not port.busy and loop.pending() == 0
    queue.resume(1)
    port.kick()
    assert port.busy
    port.kick()  # a busy port ignores a kick
    loop.run()
    assert [seq for _, seq in deliveries] == [0]
    assert port.packets_sent == 1 and len(queue) == 0
