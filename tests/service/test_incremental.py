"""Unit tests for the incremental max-min allocator.

The invariant under test everywhere: after any supported operation the
incremental allocator's rates equal a from-scratch water-fill over the
same flow set (max-min allocations are unique, so "equal" is meaningful).
Operations it cannot certify must fall back to a counted full recompute,
never to a wrong answer.
"""

import math
import random
import sys
import tracemalloc

import pytest

from repro.congestion import FlowSpec, IncrementalWaterfill, incremental
from repro.congestion.linkweights import LevelMatrix
from repro.topology import TorusTopology
from repro.validation import FaultInjector, compare_against_scratch

pytestmark = pytest.mark.service


def _spec(fid, src, dst, **kw):
    return FlowSpec(flow_id=fid, src=src, dst=dst, protocol=kw.pop("protocol", "ecmp"), **kw)


@pytest.fixture
def torus():
    return TorusTopology((4, 4))


def assert_matches_scratch(inc, tol=1e-9):
    errors = compare_against_scratch(inc)
    worst = max(errors.values(), default=0.0)
    assert worst <= tol, f"incremental diverged from scratch by {worst}"


class TestArrivalsAndDepartures:
    def test_single_arrival_matches_scratch(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        assert_matches_scratch(inc)
        assert inc.n_flows == 1
        assert inc.rate(1) > 0

    def test_interleaved_ops_match_scratch(self, torus):
        inc = IncrementalWaterfill(torus)
        for fid in range(8):
            inc.add_flow(_spec(fid, fid, (fid + 7) % 16))
            assert_matches_scratch(inc)
        for fid in (2, 5):
            assert inc.remove_flow(fid)
            assert_matches_scratch(inc)
        inc.add_flow(_spec(9, 3, 12, weight=2.0))
        assert_matches_scratch(inc)

    def test_remove_unknown_flow_is_noop(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        before = inc.stats()
        assert not inc.remove_flow(42)
        assert inc.stats() == before

    def test_reannounce_replaces_spec(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        inc.add_flow(_spec(1, 0, 5, weight=4.0))
        assert inc.n_flows == 1
        assert [s.weight for s in inc.flows()] == [4.0]
        assert_matches_scratch(inc)

    def test_demand_update_matches_scratch(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        inc.add_flow(_spec(2, 0, 5))
        inc.update_demand(1, 0.1 * torus.capacity_bps)
        assert_matches_scratch(inc)
        assert inc.rate(1) == pytest.approx(0.1 * torus.capacity_bps)

    def test_departure_frees_capacity(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 1))
        inc.add_flow(_spec(2, 0, 1))
        shared = inc.rate(1)
        inc.remove_flow(2)
        assert inc.rate(1) > shared
        assert_matches_scratch(inc)


class TestFallbacks:
    def test_priorities_force_fallback(self, torus):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        inc.add_flow(_spec(2, 0, 5, priority=1))
        stats = inc.stats()
        assert stats["fallback_recomputes"] >= 1
        assert "priorities" in stats["fallback_reasons"]
        assert_matches_scratch(inc)

    def test_rebuild_on_degraded_topology(self, torus):
        inc = IncrementalWaterfill(torus)
        for fid in range(6):
            inc.add_flow(_spec(fid, fid, (fid + 5) % 16))
        degraded, failed = FaultInjector(seed=3).fail_links(
            torus, 2, require_connected=True, symmetric=True
        )
        assert failed
        inc.rebuild(topology=degraded)
        stats = inc.stats()
        assert stats["fallback_reasons"].get("rebuild") == 1
        assert inc.n_flows == 6
        assert_matches_scratch(inc)

    def test_incremental_ratio_reported(self, torus):
        inc = IncrementalWaterfill(torus)
        for fid in range(5):
            inc.add_flow(_spec(fid, fid, fid + 8))
        stats = inc.stats()
        assert stats["incremental_ops"] + stats["fallback_recomputes"] == 5
        assert 0.0 <= stats["incremental_ratio"] <= 1.0


class TestStateRoundTrip:
    def test_state_dict_restores_exact_rates(self, torus):
        inc = IncrementalWaterfill(torus)
        for fid in range(6):
            inc.add_flow(
                _spec(fid, fid, (fid + 3) % 16, demand_bps=(fid + 1) * 1e9)
            )
        state = inc.state_dict()
        clone = IncrementalWaterfill(torus)
        clone.load_state(state)
        for spec in inc.flows():
            assert clone.rate(spec.flow_id) == inc.rate(spec.flow_id)  # bit-exact
            assert clone.bottleneck(spec.flow_id) == inc.bottleneck(spec.flow_id)
        # The restored allocator keeps allocating correctly.
        clone.add_flow(_spec(99, 2, 13))
        assert_matches_scratch(clone)

    def test_state_dict_json_round_trip_is_lossless(self, torus):
        import json

        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5, demand_bps=math.inf))
        inc.add_flow(_spec(2, 1, 6, demand_bps=1e9 / 3.0))
        state = json.loads(json.dumps(inc.state_dict()))
        clone = IncrementalWaterfill(torus)
        clone.load_state(state)
        assert clone.rate(1) == inc.rate(1)
        assert clone.rate(2) == inc.rate(2)


def _host_limited(topology, n_flows, protocol, seed=5):
    """§3.3.2 population: every flow capped at a whole number of Mb/s in
    U(0.5, 4) Gb/s — the regime single-flow patches have locality in."""
    rng = random.Random(seed)
    flows = []
    for flow_id in range(n_flows):
        src, dst = rng.sample(range(topology.n_nodes), 2)
        flows.append(_spec(flow_id, src, dst, protocol=protocol,
                           demand_bps=rng.randrange(500, 4001) * 1e6))
    return flows


@pytest.fixture(scope="module")
def rack():
    return TorusTopology((8, 8, 8))


class TestPatchCostsWhatItTouches:
    def test_small_ops_never_reach_the_batch_kernel(self, rack, monkeypatch):
        inc = IncrementalWaterfill(rack, headroom=0.05)
        flows = _host_limited(rack, 513, "ecmp")
        for spec in flows[:512]:
            inc.add_flow(spec)

        def unreachable(*args, **kwargs):
            raise AssertionError("a single-flow patch reached the batch kernel")

        # (the package attribute ``waterfill`` is the function, not the module)
        monkeypatch.setattr(sys.modules["repro.congestion.waterfill"], "fill_matrix", unreachable)
        monkeypatch.setattr(LevelMatrix, "build", unreachable)
        before = inc.incremental_ops
        inc.add_flow(flows[512])
        inc.update_demand(7, 1.25e9)
        inc.remove_flow(40)
        assert inc.incremental_ops == before + 3
        monkeypatch.undo()
        assert_matches_scratch(inc)

    def test_patch_allocates_nothing_rack_sized(self):
        """16x16x16: one float per link is 192 KiB; a small patch stays
        under a third of that, whatever the rack's size."""
        big = TorusTopology((16, 16, 16))
        assert big.n_links == 24_576
        inc = IncrementalWaterfill(big, headroom=0.05)
        for spec in _host_limited(big, 24, "ecmp"):
            inc.add_flow(spec)
        before = inc.incremental_ops
        tracemalloc.start()
        try:
            for op in (lambda: inc.update_demand(3, 2e9), lambda: inc.remove_flow(5)):
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                op()
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base < 64 * 1024
        finally:
            tracemalloc.stop()
        assert inc.incremental_ops == before + 2

    def test_sprayed_add_goes_straight_to_the_scratch_fill(self, rack):
        """On an rps table a flow shares links with nearly every other: the
        closure gives up at the budget instead of walking the table."""
        inc = IncrementalWaterfill(rack, headroom=0.05)
        flows = _host_limited(rack, 513, "rps")
        for spec in flows[:512]:
            inc.add_flow(spec)

        class CountingRows(dict):
            nnz_read = 0

            def __getitem__(self, flow_id):
                row = dict.__getitem__(self, flow_id)
                self.nnz_read += len(row[0])
                return row

        inc._rows = rows = CountingRows(inc._rows)
        before = dict(inc.fallback_reasons)
        inc.add_flow(flows[512])
        assert inc.fallback_reasons["affected_set"] == before["affected_set"] + 1
        assert set(inc.fallback_reasons) == {"affected_set"}
        budget = max(incremental._PATCH_NNZ_FLOOR, incremental._PATCH_NNZ_SHARE * inc._nnz)
        widest = max(len(row[0]) for row in rows.values())
        assert rows.nnz_read <= budget + widest < inc._nnz / 4
        assert_matches_scratch(inc)
        assert "affected_set" in inc.stats()["fallback_reasons"]

    def test_small_tables_stay_under_the_floor(self, torus):
        """The floor, not the share, decides on oracle-sized tables: an rps
        add that touches every flow is still a patch."""
        inc = IncrementalWaterfill(torus)
        for fid in range(16):
            inc.add_flow(_spec(fid, fid, (fid + 5) % 16, protocol="rps"))
            assert_matches_scratch(inc)
        assert "affected_set" not in inc.fallback_reasons
        assert inc.incremental_ops > 8


class TestPriorityCount:
    def test_count_follows_every_table_mutation(self, torus):
        inc = IncrementalWaterfill(torus)

        def check():
            assert inc._prioritized == sum(s.priority != 0 for s in inc.flows())
            assert inc._nnz == sum(len(inc._rows[s.flow_id][0]) for s in inc.flows())
            assert_matches_scratch(inc)

        for fid in range(4):
            inc.add_flow(_spec(fid, fid, fid + 8))
        check()
        inc.add_flow(_spec(9, 1, 14, priority=2))
        assert inc.fallback_reasons == {"priorities": 1}
        check()
        inc.add_flow(_spec(9, 1, 14, priority=1))  # re-announce, another priority
        check()
        inc.add_flow(_spec(2, 2, 10, priority=3))  # re-announce 0 -> 3
        check()
        assert inc._prioritized == 2
        inc.rebuild()
        check()
        clone = IncrementalWaterfill(torus)
        clone.load_state(inc.state_dict())
        assert clone._prioritized == 2 and clone._nnz == inc._nnz
        for alloc in (inc, clone):
            alloc.remove_flow(9)
            assert alloc._prioritized == 1
            patched = alloc.incremental_ops
            alloc.add_flow(_spec(2, 2, 10))  # re-announce 3 -> 0: the last one
            assert alloc._prioritized == 0
            # patches resume at once: both halves of the re-announce see 0
            assert alloc.incremental_ops == patched + 2
            alloc.add_flow(_spec(11, 3, 12))
            assert alloc.incremental_ops == patched + 3
            assert_matches_scratch(alloc)


class TestWeightRowsOfRetiredFlows:
    def test_flow_keyed_rows_do_not_outlive_their_flow(self, torus):
        """5k announce/finish cycles around 64 live ecmp flows: the provider
        used to end up holding 5,064 rows, and the ecmp protocol as many
        cached paths."""
        inc = IncrementalWaterfill(torus)
        rng = random.Random(1)
        for fid in range(5_064):
            src, dst = rng.sample(range(16), 2)
            inc.add_flow(_spec(fid, src, dst, demand_bps=rng.randrange(1, 9) * 1e8))
            if fid >= 64:
                inc.remove_flow(fid - 64)
        assert inc.n_flows == 64
        assert inc._provider.cache_size() <= 64 + 8
        assert len(inc._provider.protocol("ecmp")._path_cache) <= 64 + 8
        assert_matches_scratch(inc)

    def test_reannounce_keeps_a_row_it_still_uses(self, torus, monkeypatch):
        inc = IncrementalWaterfill(torus)
        inc.add_flow(_spec(1, 0, 5))
        inc.add_flow(_spec(2, 3, 9, protocol="rps"))
        ecmp = inc._provider.protocol("ecmp")
        calls = []
        link_weights = ecmp.link_weights
        monkeypatch.setattr(
            ecmp, "link_weights",
            lambda src, dst, flow_id=0: calls.append(dst) or link_weights(src, dst, flow_id=flow_id),
        )
        inc.add_flow(_spec(1, 0, 5, demand_bps=1e9))  # demand only: same row
        inc.scratch_allocation()
        assert calls == []
        inc.add_flow(_spec(1, 0, 7))  # new endpoint: new row, old one dropped
        assert calls == [7]
        assert inc._provider.cache_size() == 2
        inc.remove_flow(2)  # pair-keyed rows stay
        inc.remove_flow(1)
        assert inc._provider.cache_size() == 1
