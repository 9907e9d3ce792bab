"""Additional property-based suites: broadcast trees, water-fill with
priorities/demands, ring buffers, reliability transport."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broadcast import build_broadcast_tree
from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.maze import DataRingBuffer
from repro.topology import TorusTopology
from repro.transport import AckInfo, ReliableReceiver, ReliableSender

_TOPO = TorusTopology((4, 4))
_PROVIDER = WeightProvider(_TOPO)


class TestBroadcastTreeProperties:
    @given(root=st.integers(0, 15), seed=st.integers(0, 1000), tree_id=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_trees_always_optimal_spanning(self, root, seed, tree_id):
        tree = build_broadcast_tree(_TOPO, root, tree_id=tree_id, seed=seed)
        assert tree.covers_all()
        assert sum(parent is not None for parent in tree.parent) == _TOPO.n_nodes - 1
        assert tree.is_shortest_path_tree()
        assert tree.depth() == max(_TOPO.distances_from(root))


class TestWaterfillPriorityProperties:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_priority_dominance(self, seed):
        """Raising a flow to a strictly better priority never lowers its rate."""
        rng = random.Random(seed)
        src = rng.randrange(16)
        dst = (src + rng.randrange(1, 16)) % 16
        others = [
            FlowSpec(i + 1, (src + i + 1) % 16, dst, "rps", priority=1)
            for i in range(4)
        ]
        base = waterfill(
            _TOPO, [FlowSpec(0, src, dst, "rps", priority=1), *others], _PROVIDER
        )
        promoted = waterfill(
            _TOPO, [FlowSpec(0, src, dst, "rps", priority=0), *others], _PROVIDER
        )
        assert promoted.rates_bps[0] >= base.rates_bps[0] - 1e-6

    @given(
        seed=st.integers(0, 10**6),
        demand_gbps=st.floats(0.1, 50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_demand_is_a_hard_cap_and_monotone(self, seed, demand_gbps):
        rng = random.Random(seed)
        src = rng.randrange(16)
        dst = (src + rng.randrange(1, 16)) % 16
        capped = FlowSpec(0, src, dst, "rps", demand_bps=demand_gbps * 1e9)
        free = FlowSpec(1, (src + 3) % 16, dst, "rps")
        alloc = waterfill(_TOPO, [capped, free], _PROVIDER)
        assert alloc.rates_bps[0] <= demand_gbps * 1e9 + 1e-3
        # Removing the cap can only help flow 0 and only hurt flow 1.
        alloc_free = waterfill(
            _TOPO, [FlowSpec(0, src, dst, "rps"), free], _PROVIDER
        )
        assert alloc_free.rates_bps[0] >= alloc.rates_bps[0] - 1e-6
        assert alloc_free.rates_bps[1] <= alloc.rates_bps[1] + 1e-6


class TestRingBufferProperties:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(1, 64)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_slot_accounting_never_corrupts(self, ops):
        dr = DataRingBuffer(8, 64)
        live = {}
        for is_write, size in ops:
            if is_write:
                slot = dr.write(b"x" * size)
                if slot is not None:
                    assert slot not in live
                    live[slot] = size
            elif live:
                slot, size = next(iter(live.items()))
                assert len(dr.read(slot)) == size
                dr.free(slot)
                del live[slot]
        assert dr.used_slots == len(live)


class TestTransportProperties:
    @given(
        n_segments=st.integers(1, 30),
        loss_seed=st.integers(0, 10**6),
        loss_pct=st.integers(0, 60),
    )
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_always_converges_under_random_loss(self, n_segments, loss_seed, loss_pct):
        rng = random.Random(loss_seed)
        sender = ReliableSender(n_segments, rto_ns=5)
        receiver = ReliableReceiver(n_segments)
        now = 0
        budget = 200 * n_segments
        while not sender.all_acked and now < budget:
            seq = sender.next_segment(now)
            if seq is not None:
                sender.on_sent(seq, now)
                if rng.randrange(100) >= loss_pct:
                    receiver.on_segment(seq)
                    if rng.randrange(100) >= loss_pct:
                        sender.on_ack(receiver.ack_info())
            now += 1
        assert sender.all_acked
        assert receiver.complete

    @given(received=st.sets(st.integers(0, 40), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_ack_info_is_faithful(self, received):
        receiver = ReliableReceiver(41)
        for seq in sorted(received):
            receiver.on_segment(seq)
        ack = receiver.ack_info()
        for seq in range(41):
            claimed = ack.is_received(seq)
            actually = seq in received
            if claimed:
                assert actually
            # The SACK window is finite: segments beyond it may be
            # under-reported but never over-reported.
