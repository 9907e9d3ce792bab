"""Deterministic fault injection: seeded, reproducible, caught by the
stack's own defenses (checksums, failure views, reliability machinery)."""

import pytest

from repro.errors import SimulationError
from repro.sim import EventLoop
from repro.topology import TorusTopology
from repro.validation import FaultEvent, FaultInjector, FaultSchedule
from repro.wire.checksum import internet_checksum, xor8

pytestmark = pytest.mark.validation


class TestDeterminism:
    def test_same_seed_same_faults(self):
        topo = TorusTopology((4, 4))
        a, b = FaultInjector(seed=7), FaultInjector(seed=7)
        assert a.sample_links(topo, 5) == b.sample_links(topo, 5)
        assert a.corrupt(b"hello world") == b.corrupt(b"hello world")
        assert a.reordered(list(range(20))) == b.reordered(list(range(20)))

    def test_different_seeds_differ(self):
        topo = TorusTopology((4, 4))
        samples = {tuple(FaultInjector(seed=s).sample_links(topo, 6)) for s in range(8)}
        assert len(samples) > 1


class TestTopologyFaults:
    def test_fail_links_yields_connected_view(self):
        topo = TorusTopology((4, 4))
        injector = FaultInjector(seed=3)
        degraded, failed = injector.fail_links(topo, 4)
        assert degraded.is_connected()
        assert degraded.n_links == topo.n_links - 4
        assert injector.recovery.failed_links == set(failed)

    def test_too_many_failures_rejected(self):
        topo = TorusTopology((3, 3))
        with pytest.raises(SimulationError):
            FaultInjector().fail_links(topo, topo.n_links + 1)


class TestCorruption:
    def test_corruption_always_changes_data(self):
        injector = FaultInjector(seed=11)
        data = bytes(range(64))
        for _ in range(32):
            assert injector.corrupt(data) != data

    def test_internet_checksum_catches_bit_flips(self):
        injector = FaultInjector(seed=13)
        data = bytes(range(40))
        stored = internet_checksum(data)
        for n_bits in (1, 2, 3):
            corrupted = injector.corrupt(data, n_bits=n_bits)
            assert internet_checksum(corrupted) != stored

    def test_xor8_catches_single_bit_flips(self):
        injector = FaultInjector(seed=17)
        data = bytes(range(16))  # broadcast-packet sized
        stored = xor8(data)
        for _ in range(16):
            assert xor8(injector.corrupt(data, n_bits=1)) != stored

    def test_xor8_catches_truncation(self):
        injector = FaultInjector(seed=19)
        data = bytes(range(16))
        truncated = injector.truncate(data)
        assert len(truncated) < len(data)
        assert xor8(truncated) != xor8(data)


class TestDropAndReorder:
    def test_drop_decider_rate(self):
        decide = FaultInjector(seed=23).drop_decider(0.2)
        dropped = sum(decide() for _ in range(5000))
        assert 800 < dropped < 1200  # 0.2 +- generous slack

    def test_drop_decider_bounds_checked(self):
        with pytest.raises(SimulationError):
            FaultInjector().drop_decider(1.5)

    def test_reorder_is_bounded_permutation(self):
        injector = FaultInjector(seed=29)
        items = list(range(50))
        shuffled = injector.reordered(items, window=4)
        assert sorted(shuffled) == items
        assert shuffled != items
        for position, value in enumerate(shuffled):
            assert abs(position - value) <= 4


class TestFaultSchedule:
    def test_installs_and_fires_in_order(self):
        loop = EventLoop()
        fired = []
        schedule = FaultSchedule(
            [
                FaultEvent(200, "link_failure", (0, 1)),
                FaultEvent(100, "node_failure", 3),
            ]
        )
        schedule.add(FaultEvent(150, "link_recovery", (0, 1)))
        assert schedule.install(loop, lambda e: fired.append(e)) == 3
        loop.run()
        assert [e.at_ns for e in fired] == [100, 150, 200]
        assert fired[0].kind == "node_failure"
