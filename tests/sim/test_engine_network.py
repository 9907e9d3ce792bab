"""Tests for the event loop and the simulated network fabric."""

import pytest

from repro.broadcast import BroadcastFib
from repro.errors import SimulationError
from repro.sim import (
    EventLoop,
    FifoQueue,
    KIND_BROADCAST,
    KIND_DATA,
    PerFlowRoundRobin,
    RackNetwork,
    SimPacket,
)
from repro.types import transmission_time_ns


class _EventProbe:
    """The engine-facing slice of a probe: asks for every event."""

    def __init__(self, seen):
        self._seen = seen

    def engine_event(self, at_ns, prio, seq):
        self._seen.append((at_ns, prio, seq))

    def engine_batch(self, start_ns, end_ns, processed):
        pass


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        order = []
        loop.schedule(10, lambda: order.append("b"))
        loop.schedule(5, lambda: order.append("a"))
        loop.schedule(10, lambda: order.append("c"))  # FIFO among ties
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 10

    def test_until_bound(self):
        loop = EventLoop()
        fired = []
        loop.schedule(100, lambda: fired.append(1))
        loop.run(until_ns=50)
        assert not fired
        assert loop.now == 50
        loop.run(until_ns=150)
        assert fired

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(10, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_at(5, lambda: None)

    def test_cascading_events(self):
        loop = EventLoop()
        hits = []

        def chain(n):
            hits.append(n)
            if n < 3:
                loop.schedule(1, lambda: chain(n + 1))

        loop.schedule(0, lambda: chain(0))
        loop.run()
        assert hits == [0, 1, 2, 3]
        assert loop.events_processed == 4

    def test_max_events_bound(self):
        loop = EventLoop()

        def forever():
            loop.schedule(1, forever)

        loop.schedule(0, forever)
        processed = loop.run(max_events=10)
        assert processed == 10


class TestEventLoopBatch:
    def test_run_batch_matches_run(self):
        """run_batch must be semantically identical to run."""
        def drive(runner):
            loop = EventLoop()
            order = []
            loop.schedule(10, lambda: order.append("b"))
            loop.schedule(5, lambda: order.append("a"))
            loop.schedule(10, lambda: order.append("c"))
            runner(loop, 7)
            mid = (list(order), loop.now)
            runner(loop, None)
            return mid, list(order), loop.now, loop.events_processed

        plain = drive(lambda loop, until: loop.run(until_ns=until))
        fast = drive(lambda loop, until: loop.run_batch(until_ns=until))
        assert plain == fast

    def test_run_batch_advances_clock_to_until(self):
        loop = EventLoop()
        loop.run_batch(until_ns=40)
        assert loop.now == 40
        with pytest.raises(SimulationError):
            loop.run_batch(until_ns=10)

    def test_run_batch_falls_back_with_observer(self):
        loop = EventLoop()
        seen = []

        loop.attach_probe(_EventProbe(seen))
        loop.schedule(5, lambda: None)
        loop.schedule(5, lambda: None)
        assert loop.run_batch() == 2
        assert len(seen) == 2  # a per-event probe still sees every event

    def test_run_batch_respects_max_events(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(1, lambda: None)
        assert loop.run_batch(max_events=2) == 2
        assert loop.pending() == 3

    def test_schedule_batch_runs_in_order_as_one_event(self):
        loop = EventLoop()
        order = []
        loop.schedule(10, lambda: order.append("before"))
        loop.schedule_batch(10, [lambda i=i: order.append(i) for i in range(3)])
        loop.schedule(10, lambda: order.append("after"))
        processed = loop.run()
        assert order == ["before", 0, 1, 2, "after"]
        assert processed == 3  # the batch counts once

    def test_schedule_batch_empty_and_singleton(self):
        loop = EventLoop()
        fired = []
        loop.schedule_batch(5, [])
        loop.schedule_batch(5, [lambda: fired.append(1)])
        assert loop.run() == 1
        assert fired == [1]


class TestEventLoopTimeValidation:
    """NaN/fractional delays would silently corrupt heap ordering."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.5])
    def test_non_integral_delay_rejected(self, bad):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), 2.25, "10", None, object()])
    def test_non_integral_timestamp_rejected(self, bad):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule_at(bad, lambda: None)

    def test_integral_float_accepted(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [10]
        assert isinstance(loop.now, int)

    def test_index_like_delay_accepted(self):
        class NanoSeconds:
            def __index__(self):
                return 7

        loop = EventLoop()
        loop.schedule(NanoSeconds(), lambda: None)
        loop.run()
        assert loop.now == 7

    def test_run_until_past_rejected(self):
        loop = EventLoop()
        loop.schedule(10, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.run_until(5)

    def test_run_until_nan_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.run_until(float("nan"))

    def test_run_until_advances_clock(self):
        loop = EventLoop()
        fired = []
        loop.schedule(100, lambda: fired.append(1))
        assert loop.run_until(50) == 0
        assert loop.now == 50 and not fired
        assert loop.run_until(100) == 1
        assert fired == [1]

    def test_observer_sees_every_event(self):
        seen = []

        loop = EventLoop()
        loop.attach_probe(_EventProbe(seen))
        loop.schedule(5, lambda: None)
        loop.schedule(5, lambda: None)
        loop.schedule(2, lambda: None)
        loop.run()
        assert len(seen) == 3
        assert seen == sorted(seen)  # time-ordered, FIFO among ties


class TestQueues:
    def test_fifo_order_and_limit(self):
        q = FifoQueue(limit_bytes=250)
        a = SimPacket(KIND_DATA, 1, 0, 1, 0, 100)
        b = SimPacket(KIND_DATA, 1, 0, 1, 1, 100)
        c = SimPacket(KIND_DATA, 1, 0, 1, 2, 100)
        assert q.enqueue(a) and q.enqueue(b)
        assert not q.enqueue(c)  # over the 250-byte limit
        assert q.dequeue() is a
        assert q.enqueue(c)
        assert q.dequeue() is b and q.dequeue() is c
        assert q.dequeue() is None

    def test_per_flow_round_robin_fairness(self):
        q = PerFlowRoundRobin()
        for seq in range(3):
            q.enqueue(SimPacket(KIND_DATA, 1, 0, 1, seq, 10))
            q.enqueue(SimPacket(KIND_DATA, 2, 0, 1, seq, 10))
        order = [q.dequeue().flow_id for _ in range(6)]
        # Alternates between the two flows.
        assert order in ([1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1])

    def test_per_flow_pause_resume(self):
        q = PerFlowRoundRobin()
        q.enqueue(SimPacket(KIND_DATA, 1, 0, 1, 0, 10))
        q.enqueue(SimPacket(KIND_DATA, 2, 0, 1, 0, 10))
        q.pause(1)
        assert q.dequeue().flow_id == 2
        assert q.dequeue() is None  # flow 1 paused
        q.resume(1)
        assert q.dequeue().flow_id == 1

    def test_per_flow_occupancy(self):
        q = PerFlowRoundRobin()
        q.enqueue(SimPacket(KIND_DATA, 7, 0, 1, 0, 120))
        assert q.flow_occupancy_bytes(7) == 120
        assert q.occupancy_bytes == 120


class _Sink:
    def __init__(self):
        self.received = []

    def deliver(self, packet):
        self.received.append(packet)


class TestRackNetwork:
    def make(self, topology, fib=None):
        loop = EventLoop()
        net = RackNetwork(loop, topology, fib=fib)
        sinks = []
        for node in topology.nodes():
            sink = _Sink()
            net.stack_at[node] = sink
            sinks.append(sink)
        return loop, net, sinks

    def test_source_routed_delivery(self, torus2d):
        loop, net, sinks = self.make(torus2d)
        packet = SimPacket(KIND_DATA, 1, 0, 5, 0, 1000, path=(0, 1, 5))
        net.inject(0, packet)
        loop.run()
        assert sinks[5].received == [packet]
        assert all(not s.received for i, s in enumerate(sinks) if i != 5)

    def test_delivery_latency(self, torus2d):
        loop, net, sinks = self.make(torus2d)
        packet = SimPacket(KIND_DATA, 1, 0, 5, 0, 1000, path=(0, 1, 5))
        net.inject(0, packet)
        loop.run()
        serialization = transmission_time_ns(1000, torus2d.capacity_bps)
        expected = 2 * (serialization + torus2d.latency_ns)
        assert loop.now == expected

    def test_wrong_route_detected(self, torus2d):
        loop, net, _ = self.make(torus2d)
        bad = SimPacket(KIND_DATA, 1, 0, 5, 0, 100, path=(3, 5))
        with pytest.raises(SimulationError):
            net.inject(0, bad)

    def test_broadcast_reaches_all(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        loop, net, sinks = self.make(torus2d, fib=fib)
        packet = SimPacket(KIND_BROADCAST, 9, 3, 0, 0, 16, tree_id=1)
        net.inject(3, packet)
        loop.run()
        for sink in sinks:
            assert len(sink.received) == 1

    def test_broadcast_without_fib_raises(self, torus2d):
        loop, net, _ = self.make(torus2d)
        with pytest.raises(SimulationError):
            net.inject(0, SimPacket(KIND_BROADCAST, 1, 0, 0, 0, 16))

    def test_queue_stats(self, torus2d):
        loop, net, _ = self.make(torus2d)
        for seq in range(5):
            net.inject(0, SimPacket(KIND_DATA, 1, 0, 1, seq, 1500, path=(0, 1)))
        loop.run()
        port = net.port(0, 1)
        assert port.packets_sent == 5
        assert port.bytes_sent == 7500
        assert port.max_occupancy_bytes > 0
        assert net.total_bytes_sent() == 7500

    def test_missing_stack_raises(self, torus2d):
        loop = EventLoop()
        net = RackNetwork(loop, torus2d)
        net.inject(0, SimPacket(KIND_DATA, 1, 0, 1, 0, 100, path=(0, 1)))
        with pytest.raises(SimulationError):
            loop.run()

    def test_drop_callback(self, torus2d):
        loop = EventLoop()
        drops = []
        net = RackNetwork(
            loop,
            torus2d,
            queue_factory=lambda: FifoQueue(limit_bytes=100),
            on_drop=lambda node, pkt: drops.append((node, pkt.seq)),
        )
        net.stack_at[1] = _Sink()
        # First packet goes straight to the transmitter (queue stays empty),
        # the second fills the 100-byte queue, the third is dropped.
        assert net.port(0, 1).send(SimPacket(KIND_DATA, 1, 0, 1, 0, 100, path=(0, 1)))
        assert net.port(0, 1).send(SimPacket(KIND_DATA, 1, 0, 1, 1, 100, path=(0, 1)))
        assert not net.port(0, 1).send(
            SimPacket(KIND_DATA, 1, 0, 1, 2, 100, path=(0, 1))
        )
        assert net.total_drops() == 1
        assert drops == [(0, 2)]
        loop.run()
