"""One output port, driven directly.

A hop is one event: a transmission schedules its packet's delivery when
serialization starts, and a finish event exists only while a packet waits
behind the running transmission.  A seeded property test holds one port to
the closed-form FIFO rules (timing, drops, event count) and, for PFQ with
pause/resume/kick, to a two-event reference port — the model before the
fold; the unit tests pin the same-instant rules, the probe's queue path and
the ``send_batched`` pending items.
"""

import random

import pytest

from repro.sim import KIND_DATA, EventLoop, FifoQueue, PerFlowRoundRobin, SimPacket
from repro.sim.network import OutputPort
from repro.types import transmission_time_ns

#: 1 byte = 8 ns, so sends on a 400 ns grid land exactly on ``_free_at``
CAPACITY_BPS = 1e9
LATENCY_NS = 100


def _tx(size):
    return transmission_time_ns(size, CAPACITY_BPS)


class _QueueProbe:
    """Observes nothing but the finish instants; attaching it keeps the
    queue path."""

    def __init__(self):
        self.finishes = []

    def port_accept(self, port, packet):
        pass

    def port_drop(self, port, packet):
        pass

    def tx_start(self, port, packet, duration_ns):
        pass

    def tx_finish(self, port, packet, finish_ns):
        assert finish_ns == port._free_at  # reported as serialization starts
        self.finishes.append(finish_ns)

    def wire_loss(self, port, packet):
        pass


def _packet(seq, size=1500, flow=1):
    return SimPacket(KIND_DATA, flow, 0, 1, seq, size, path=(0, 1))


def _port(loop, queue_path=False, limit_bytes=None, queue=None, **kwargs):
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
        **kwargs,
    )
    return port, deliveries, drops, enqueues


# ---------------------------------------------------------------------- #
# Property test: one port against its closed form and the two-event model
# ---------------------------------------------------------------------- #


def _ops(rng, n, flows, pauses):
    """``(at_ns, kind, arg)`` at non-decreasing times on a 400 ns grid."""
    ops, at = [], 0
    for seq in range(n):
        at += rng.choice((0, 0, 400, 800, 1200, 2400, 4800))
        if pauses and rng.random() < 0.15:
            ops.append((at, rng.choice(("pause", "resume")), rng.randrange(flows)))
        else:
            size = rng.choice((100, 200, 300))
            ops.append((at, "send", _packet(seq, size, flow=rng.randrange(flows))))
    return ops


def _drive(loop, port, ops, chains=0):
    """Run *ops*; returns the queue's bytes after each op, and how many
    sends found the port exactly at ``_free_at`` with no finish armed and
    with one armed.

    With no *chains*, every op is scheduled up front, before the port's own
    events, so at one instant the ops run first.  Otherwise op ``i`` joins
    chain ``i % chains`` and schedules its chain's next op as it runs, so
    same-instant ops and port events interleave in varied orders.
    """
    seen, ties = [], [0, 0]

    def run(index):
        at, kind, arg = ops[index]
        if kind == "send":
            if isinstance(port, OutputPort) and port._free_at == loop.now:
                ties[port._armed] += 1
            port.send(arg)
        else:
            getattr(port.queue, kind)(arg)
            port.kick()
        seen.append(port.queue.occupancy_bytes)
        if chains and index + chains < len(ops):
            loop.schedule_at(ops[index + chains][0], run, index + chains)

    for index in range(chains or len(ops)):
        loop.schedule_at(ops[index][0], run, index)
    loop.run()
    return seen, ties


def _fifo_expected(ops, limit_bytes, loss_rng=None, loss_rate=0.0):
    """Deliveries, drops, max occupancy and port events by the closed form
    (ops scheduled up front): a packet starts at ``max(send, previous
    free)``, is dropped when the bytes still queued plus its own exceed the
    limit, and costs one event to deliver plus one if it waited."""
    accepted = []  # (send_ns, start_ns, size)
    free_ns, max_occupancy, waited = 0, 0, 0
    deliveries, drops = [], []
    for at, _, packet in ops:
        size = packet.size_bytes
        # a packet due to start at `at` that waited is still queued: the
        # finish that starts it runs after the ops of its instant
        queued = sum(
            s for sent, start, s in accepted if start > at or (start == at and sent < at)
        )
        if limit_bytes is not None and queued + size > limit_bytes:
            drops.append(packet.seq)
            continue
        max_occupancy = max(max_occupancy, queued + size)
        start = max(at, free_ns)
        free_ns = start + _tx(size)
        waited += start > at
        accepted.append((at, start, size))
        if loss_rng is not None and loss_rng.random() < loss_rate:
            continue
        deliveries.append((free_ns + LATENCY_NS, packet.seq))
    return deliveries, drops, max_occupancy, len(deliveries) + waited


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "limit_bytes, loss_rate", [(None, 0.0), (700, 0.0), (None, 0.25)]
)
@pytest.mark.parametrize("queue_path", [False, True])
def test_fifo_port_follows_the_closed_form(seed, limit_bytes, loss_rate, queue_path):
    rng = random.Random(seed)
    ops = _ops(rng, 300, flows=1, pauses=False)
    loop = EventLoop()
    port, deliveries, drops, _ = _port(
        loop, queue_path, limit_bytes=limit_bytes, loss_rate=loss_rate,
        loss_rng=random.Random(seed) if loss_rate else None,
    )
    _, ties = _drive(loop, port, ops)
    expected = _fifo_expected(
        ops, limit_bytes, random.Random(seed) if loss_rate else None, loss_rate
    )
    events = loop.events_processed - len(ops)
    assert (deliveries, drops, port.max_occupancy_bytes, events) == expected
    assert port.wire_losses == port.packets_sent - len(deliveries)
    assert min(ties) > 0, "no send landed exactly on _free_at"
    if limit_bytes is not None:
        assert drops


class _TwoEventPort:
    """Two events per hop: every transmission schedules a finish, and the
    finish schedules the delivery and serves the queue.

    Written as the port was before a hop became one event, with one rule
    changed to the one-event port's: the transmitter is free from the
    instant its serialization ends, so a send that finds the queue empty
    then starts at once even if the finish has not run yet (that stale
    finish only delivers).  Everything else — which packet goes when, the
    queue seen by each op, drops — must agree.
    """

    def __init__(self, loop, queue):
        self._loop, self.queue = loop, queue
        self.deliveries, self.drops = [], []
        self.max_occupancy_bytes = self.packets_sent = 0
        self._busy, self._free_at, self._current = False, 0, None

    def send(self, packet):
        was_empty = not self.queue.occupancy_bytes
        if not self.queue.enqueue(packet):
            self.drops.append(packet.seq)
            return False
        self.max_occupancy_bytes = max(self.max_occupancy_bytes, self.queue.occupancy_bytes)
        if not self._busy or (was_empty and self._free_at <= self._loop.now):
            self._transmit()
        return True

    def _transmit(self):
        packet = self._current = self.queue.dequeue()
        self._busy = packet is not None
        if self._busy:
            self.packets_sent += 1
            self._free_at = self._loop.now + _tx(packet.size_bytes)
            self._loop.schedule(_tx(packet.size_bytes), self._finish, packet)

    def _finish(self, packet):
        self._loop.schedule(LATENCY_NS, self._deliver, packet)
        if packet is self._current:
            self._transmit()

    def _deliver(self, packet):
        self.deliveries.append((self._loop.now, packet.seq))

    def kick(self):
        if not self._busy:
            self._transmit()


QUEUES = {
    "fifo": (FifoQueue, 1),
    "fifo-700": (lambda: FifoQueue(700), 1),
    "pfq": (PerFlowRoundRobin, 3),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "queue, pauses", [("fifo", False), ("fifo-700", False), ("pfq", False), ("pfq", True)]
)
def test_port_matches_the_two_event_model(seed, queue, pauses):
    """Ops that interleave with the port's events at one instant see the
    queue exactly as they did when every transmission had a finish event."""
    make_queue, flows = QUEUES[queue]
    ops = _ops(random.Random(seed), 300, flows=flows, pauses=pauses)
    loop = EventLoop()
    port, deliveries, drops, _ = _port(loop, queue=make_queue())
    seen, ties = _drive(loop, port, ops, chains=3)
    reference_loop = EventLoop()
    reference = _TwoEventPort(reference_loop, make_queue())
    assert _drive(reference_loop, reference, ops, chains=3)[0] == seen
    assert deliveries == reference.deliveries
    assert (drops, port.max_occupancy_bytes, port.packets_sent) == (
        reference.drops, reference.max_occupancy_bytes, reference.packets_sent
    )
    assert len(deliveries) == port.packets_sent > 0
    assert ties[1] > 0, "no send landed on _free_at while a packet waited"
    if not pauses:
        # one event per delivery, plus the finish that started each packet
        # that waited (a kick, not a finish, starts a resumed packet)
        sent = {arg.seq: (at, arg.size_bytes) for at, kind, arg in ops if kind == "send"}
        waited = sum(
            done - LATENCY_NS - _tx(sent[seq][1]) > sent[seq][0] for done, seq in deliveries
        )
        assert loop.events_processed - len(ops) == len(deliveries) + waited


# ---------------------------------------------------------------------- #
# Same-instant rules
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("before_the_start", [True, False])
def test_a_send_at_free_at_starts_at_once_when_nothing_waits(before_the_start):
    """The transmitter is free from the instant its serialization ends,
    whatever else runs at that instant first."""
    loop = EventLoop()
    port, deliveries, _, _ = _port(loop)
    if before_the_start:
        loop.schedule_at(800, port.send, _packet(1, 100))
    assert port.send(_packet(0, 100))
    if not before_the_start:
        loop.schedule_at(800, port.send, _packet(1, 100))
    loop.run()
    assert deliveries == [(800 + LATENCY_NS, 0), (1600 + LATENCY_NS, 1)]
    # two deliveries and the send: no finish event was ever armed
    assert loop.events_processed == 3
    assert port.max_occupancy_bytes == 100


@pytest.mark.parametrize(
    "scheduled, occupancy",
    [("before_the_start", 200), ("while_serializing", 100), ("after_the_wait", 100)],
)
def test_a_send_at_free_at_queues_behind_a_waiting_packet(scheduled, occupancy):
    """The armed finish sorts among the events of its instant as if it had
    been scheduled when the running serialization started: a send
    scheduled before that runs first and still sees the waiting packet
    queued; one scheduled after it finds that packet started, even if it
    was scheduled before the packet began to wait."""
    loop = EventLoop()
    port, deliveries, _, _ = _port(loop)
    late = _packet(2, 100)
    if scheduled == "before_the_start":
        loop.schedule_at(800, port.send, late)
    assert port.send(_packet(0, 100))
    if scheduled == "while_serializing":
        loop.schedule_at(800, port.send, late)
    assert port.send(_packet(1, 100))  # waits: the finish is armed at 800
    if scheduled == "after_the_wait":
        loop.schedule_at(800, port.send, late)
    loop.run()
    assert deliveries == [(800 + LATENCY_NS, 0), (1600 + LATENCY_NS, 1), (2400 + LATENCY_NS, 2)]
    assert port.max_occupancy_bytes == occupancy
    # three deliveries, two finishes (packets 1 and 2 waited) and the send
    assert loop.events_processed == 6


# ---------------------------------------------------------------------- #
# The probe's queue path and the pending form
# ---------------------------------------------------------------------- #


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
    """A probe keeps the enqueue -> dequeue bookkeeping and schedules the
    same events: observation never changes the event count."""
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
            assert len(port._probe.finishes) == port.packets_sent
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
    """The ``send_batched(packet, pending)`` contract the port micro-benchmark
    relies on: nothing is scheduled, and calling the item's callable ends
    the serialization — the packet arrives one latency later."""
    loop = EventLoop()
    port, deliveries, _, _ = _port(loop, queue_path)
    pending = []
    assert port.send_batched(_packet(0, size=16), pending)
    assert loop.pending() == 0  # nothing scheduled: the caller does it
    [(duration, fire)] = pending
    assert type(duration) is int
    assert duration == transmission_time_ns(16, CAPACITY_BPS)
    loop.schedule(duration, fire)  # zero arguments
    loop.run()
    assert deliveries == [(duration + LATENCY_NS, 0)]
    assert not port.busy


def test_busy_is_the_serialization_window():
    loop = EventLoop()
    port, _, _, _ = _port(loop)
    port.send(_packet(0, 100))
    assert port.busy and port._free_at == 800
    loop.run(until_ns=799)
    assert port.busy
    loop.run(until_ns=800)
    assert not port.busy


def test_kick_restarts_a_port_after_pfq_resume():
    loop = EventLoop()
    queue = PerFlowRoundRobin()
    port, deliveries, _, _ = _port(loop, queue=queue)
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


def test_a_flow_resumed_mid_serialization_starts_when_the_transmitter_frees():
    """A paused flow's packet keeps a finish armed behind every
    transmission, so once resumed it starts the moment the transmitter
    frees (the kick finds that finish armed)."""
    loop = EventLoop()
    queue = PerFlowRoundRobin()
    port, deliveries, _, _ = _port(loop, queue=queue)
    queue.pause(1)
    assert port.send(_packet(0, size=100, flow=2))  # on the wire until 800
    assert port.send(_packet(1, size=100, flow=1))  # paused behind it
    loop.run(until_ns=1000)  # the finish at 800 found only the paused flow
    assert [seq for _, seq in deliveries] == [0] and not port.busy
    assert port.send(_packet(2, size=100, flow=2))  # on the wire until 1800
    queue.resume(1)
    port.kick()
    loop.run()
    assert deliveries[1:] == [(1800 + LATENCY_NS, 2), (2600 + LATENCY_NS, 1)]
