"""Epoch scheduling arithmetic and the generation-based short-circuit."""

import pytest

from repro.congestion import (
    ControllerConfig,
    FlowSpec,
    RateController,
    WeightProvider,
    waterfill,
)
from repro.lru import BoundedLru
from repro.types import usec


def make(topology, **cfg):
    return RateController(topology, node=0, config=ControllerConfig(**cfg))


class TestMaybeRecomputeArithmetic:
    def test_before_first_epoch_is_noop(self, torus2d):
        ctrl = make(torus2d)
        assert ctrl.maybe_recompute(usec(499)) is None
        assert ctrl.next_epoch_ns() == usec(500)
        assert ctrl.stats == []

    def test_exact_boundary_fires_and_advances_one_interval(self, torus2d):
        ctrl = make(torus2d)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        assert ctrl.maybe_recompute(usec(500)) is not None
        assert ctrl.next_epoch_ns() == usec(1000)

    def test_missed_epochs_are_skipped_not_replayed(self, torus2d):
        ctrl = make(torus2d)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        # 2750 us is past epochs at 500/1000/1500/2000/2500; one recompute
        # runs and the schedule lands on the next future boundary.
        ctrl.maybe_recompute(usec(2750))
        assert ctrl.next_epoch_ns() == usec(3000)
        assert len([s for s in ctrl.stats if not s.skipped]) == 1

    def test_landing_on_far_boundary_schedules_strictly_later(self, torus2d):
        ctrl = make(torus2d)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        ctrl.maybe_recompute(usec(3000))  # exactly on a (missed) boundary
        assert ctrl.next_epoch_ns() == usec(3500)

    def test_interval_zero_is_clamped(self, torus2d):
        # recompute_interval_ns=0 (continuous recomputation) must not
        # divide by zero or loop; the divisor clamps to 1 ns.
        ctrl = make(torus2d, recompute_interval_ns=0)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        assert ctrl.maybe_recompute(0) is not None
        assert ctrl.next_epoch_ns() == 1
        assert ctrl.maybe_recompute(5) is not None
        assert ctrl.next_epoch_ns() == 6


class TestGenerationShortCircuit:
    def test_idle_epoch_is_skipped_and_identical(self, torus2d):
        ctrl = make(torus2d)
        for i in range(4):
            ctrl.on_flow_started(FlowSpec(i, i, i + 4), now_ns=0)
        first = ctrl.recompute(usec(500))
        again = ctrl.recompute(usec(1000))
        assert again is first  # same object: nothing recomputed
        assert ctrl.stats[-1].skipped
        assert not ctrl.stats[-2].skipped

    def test_skipped_allocation_equals_forced_recompute(self, torus2d):
        """The short-circuited allocation must match a from-scratch fill."""
        shared = WeightProvider(torus2d)
        ctrl = make(torus2d)
        fresh = RateController(torus2d, node=0, provider=shared)
        for i in range(6):
            spec = FlowSpec(i, i % torus2d.n_nodes, (i + 3) % torus2d.n_nodes)
            ctrl.on_flow_started(spec, now_ns=0)
            fresh.on_flow_started(spec, now_ns=0)
        ctrl.recompute(usec(500))
        skipped = ctrl.recompute(usec(1000))  # short-circuited
        forced = fresh.recompute(usec(1000))  # fresh controller, full fill
        assert skipped.rates_bps == pytest.approx(forced.rates_bps)
        assert skipped.bottleneck_link == forced.bottleneck_link

    def test_any_table_mutation_defeats_the_short_circuit(self, torus2d):
        ctrl = make(torus2d)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        ctrl.recompute(usec(500))
        ctrl.on_demand_update(1, 2e9)  # demand churn bumps the generation
        ctrl.recompute(usec(1000))
        assert not ctrl.stats[-1].skipped
        ctrl.on_flow_started(FlowSpec(2, 1, 6), now_ns=usec(1000))
        ctrl.recompute(usec(1500))
        assert not ctrl.stats[-1].skipped

    def test_skipped_stats_record_zero_cost_epoch(self, torus2d):
        ctrl = make(torus2d)
        ctrl.on_flow_started(FlowSpec(1, 0, 5), now_ns=0)
        ctrl.recompute(usec(500))
        ctrl.recompute(usec(1000))
        stats = ctrl.stats[-1]
        assert stats.skipped
        assert stats.n_flows == 1
        assert stats.at_ns == usec(1000)
        # The short-circuit must be orders of magnitude under the interval.
        assert stats.duration_ns < ctrl.config.recompute_interval_ns


class TestContentKey:
    def test_order_independent(self, torus2d):
        a = RateController(torus2d, node=0)
        b = RateController(torus2d, node=1)
        specs = [FlowSpec(i, i, i + 4) for i in range(4)]
        for spec in specs:
            a.table.add(spec)
        for spec in reversed(specs):
            b.table.add(spec)
        assert a.table.content_key == b.table.content_key

    def test_demand_changes_key_but_not_structure(self, torus2d):
        """Demand enters the allocation memo's key, not the level matrix's:
        after ``update_demand`` the provider hands out the cached matrix."""
        ctrl = RateController(torus2d, node=0)
        ctrl.table.add(FlowSpec(1, 0, 5))
        key = ctrl.table.content_key
        matrix = ctrl.provider.level_matrix(ctrl.table.snapshot())
        ctrl.table.update_demand(1, 3e9)
        assert ctrl.table.content_key != key
        assert ctrl.provider.level_matrix(ctrl.table.snapshot()) is matrix

    def test_remove_restores_key(self, torus2d):
        ctrl = RateController(torus2d, node=0)
        ctrl.table.add(FlowSpec(1, 0, 5))
        key = ctrl.table.content_key
        ctrl.table.add(FlowSpec(2, 1, 6))
        ctrl.table.remove(2)
        assert ctrl.table.content_key == key

    def test_shared_cache_hits_across_controllers(self, torus2d):
        """Two controllers with equal tables share one water-fill result."""
        provider = WeightProvider(torus2d)
        cache = BoundedLru(16)
        a = RateController(torus2d, node=0, provider=provider, allocation_cache=cache)
        b = RateController(torus2d, node=1, provider=provider, allocation_cache=cache)
        for spec in [FlowSpec(i, i, i + 4) for i in range(3)]:
            a.table.add(spec)
            b.table.add(spec)
        alloc_a = a.recompute(usec(500))
        alloc_b = b.recompute(usec(500))
        assert alloc_b is alloc_a  # second controller reused the memo
        assert len(cache) == 1


class TestArrivalFillIsTheEpochFill:
    """Under ``local_waterfill`` an arrival fills the whole table; the epoch
    that finds the table as that arrival left it reuses the fill."""

    @pytest.fixture
    def fills(self, monkeypatch):
        """Every allocation ``waterfill`` hands the controller, in order."""
        from repro.congestion import controller

        made = []

        def counting(*args, **kwargs):
            made.append(controller_waterfill(*args, **kwargs))
            return made[-1]

        controller_waterfill = controller.waterfill
        monkeypatch.setattr(controller, "waterfill", counting)
        return made

    @staticmethod
    def _standing(ctrl):
        for i in range(4):
            ctrl.on_flow_started(FlowSpec(i, i, i + 4, demand_bps=(i + 1) * 1e9), now_ns=0)
        ctrl.recompute(usec(500))

    def test_arrival_then_epoch_is_one_fill(self, torus2d, fills):
        ctrl = make(torus2d)
        self._standing(ctrl)
        del fills[:]
        ctrl.on_flow_started(FlowSpec(9, 0, 5), now_ns=usec(600))
        young = ctrl.rate_for(9)
        allocation = ctrl.recompute(usec(1000))
        assert len(fills) == 1
        assert allocation is fills[0]  # the object the young rate was read from
        assert ctrl.rate_for(9) == young == allocation.rates_bps[9]
        stats = ctrl.stats[-1]
        assert not stats.skipped  # an epoch was served, by lookup
        assert stats.n_flows == 5 and stats.at_ns == usec(1000)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ctrl: ctrl.on_demand_update(2, 0.5e9),
            lambda ctrl: ctrl.on_flow_finished(1, usec(700)),
            lambda ctrl: ctrl.on_flow_started(FlowSpec(10, 1, 6), usec(700)),
        ],
        ids=["demand", "finish", "arrival"],
    )
    def test_a_table_change_in_between_forces_a_second_fill(self, torus2d, fills, mutate):
        ctrl = make(torus2d)
        self._standing(ctrl)
        del fills[:]
        ctrl.on_flow_started(FlowSpec(9, 0, 5), now_ns=usec(600))
        mutate(ctrl)
        allocation = ctrl.recompute(usec(1000))
        assert len(fills) == 2
        assert allocation is fills[1]
        forced = waterfill(torus2d, ctrl.table.snapshot(), WeightProvider(torus2d), headroom=0.05)
        assert allocation.rates_bps == forced.rates_bps

    def test_private_memo_holds_one_allocation(self, torus2d):
        ctrl = make(torus2d)
        self._standing(ctrl)
        ctrl.on_demand_update(0, 2e9)
        ctrl.recompute(usec(1000))
        assert len(ctrl._allocation_cache) == 1
