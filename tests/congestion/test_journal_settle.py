"""A journal of learned broadcasts settles to exactly the eager table.

A per-node controller appends other nodes' announcements to a journal and
applies them with :meth:`FlowTable.settle` at its next read.  The settle
keeps a flow that starts and finishes inside one journal out of the dict,
so these oracles drive one event script two ways — eager ``add`` /
``remove`` / ``update_demand`` on arrival, and journal + settle at random
read points with local writes interleaved — and require the two tables to
agree after every settle: ``content_key``, both generations, the flow-id
order and the specs.  ``R2C2_VALIDATION_CASES`` sizes the sweeps.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congestion import ControllerConfig, FlowSpec, FlowTable, RateController
from repro.errors import ReproError
from repro.topology import TorusTopology
from repro.types import usec
from repro.wire.packets import EVENT_DEMAND_UPDATE, EVENT_FLOW_FINISH, EVENT_FLOW_START

pytestmark = pytest.mark.validation

_N_CASES = int(os.environ.get("R2C2_VALIDATION_CASES", "20"))
_N_NODES = 9
RHO = usec(500)

#: A handful of ids, so scripts revisit flows: re-announces, start → finish
#: → start of one id, finishes that outrace their start.
_ids = st.integers(0, 5)
_specs = st.builds(
    FlowSpec,
    flow_id=_ids,
    src=st.integers(1, _N_NODES - 1),
    dst=st.just(0),
    protocol=st.sampled_from(("rps", "vlb")),
    weight=st.sampled_from((1.0, 2.0)),
    demand_bps=st.sampled_from((math.inf, 1e9)),
)
_steps = st.one_of(
    st.tuples(st.just("learn"), st.just(EVENT_FLOW_START), _specs),
    st.tuples(st.just("learn"), st.just(EVENT_FLOW_FINISH), _ids),
    st.tuples(st.just("learn"), st.just(EVENT_DEMAND_UPDATE),
              st.tuples(_ids, st.sampled_from((5e8, 2e9)))),
    st.tuples(st.just("local"), st.sampled_from(("add", "remove", "demand", "protocol")),
              _specs),
    st.tuples(st.just("read"), st.none(), st.none()),
)
_scripts = st.lists(_steps, max_size=40)


def _start(flow_id, **fields):
    return ("learn", EVENT_FLOW_START, FlowSpec(flow_id, 1, 0, **fields))


def _finish(flow_id):
    return ("learn", EVENT_FLOW_FINISH, flow_id)


def _demand(flow_id, demand_bps):
    return ("learn", EVENT_DEMAND_UPDATE, (flow_id, demand_bps))


_READ = ("read", None, None)


def _state(table: FlowTable):
    return (
        table.content_key,
        table.generation,
        table.membership_generation,
        list(table.flow_ids()),
        list(table),
    )


def _apply(table: FlowTable, event: int, data) -> None:
    """The eager writes: one table call per learned event."""
    if event == EVENT_FLOW_START:
        table.add(data)
    elif event == EVENT_FLOW_FINISH:
        table.remove(data)
    else:
        table.update_demand(*data)


def _local(table: FlowTable, write: str, spec: FlowSpec) -> None:
    if write == "add":
        table.add(spec)
    elif write == "remove":
        table.remove(spec.flow_id)
    elif write == "demand":
        table.update_demand(spec.flow_id, 3e9)
    else:
        table.update_protocol(spec.flow_id, spec.protocol)


def _run(script) -> int:
    """Drive *script* eagerly and through a journal; returns the number of
    settles that found the tables equal."""
    eager, lazy = FlowTable(), FlowTable()
    journal: list = []
    append = journal.append
    settles = 0

    def settle():
        nonlocal settles
        lazy.settle(journal)
        assert journal == [] and append.__self__ is journal
        assert _state(lazy) == _state(eager)
        settles += 1

    for kind, what, data in script:
        if kind == "learn":
            _apply(eager, what, data)
            append((what, data))
        elif kind == "local":
            settle()  # a local write is a read point
            _local(eager, what, data)
            _local(lazy, what, data)
        else:
            settle()
    settle()
    return settles


class TestSettleEqualsEagerWrites:
    @given(script=_scripts)
    @settings(max_examples=10 * _N_CASES, deadline=None)
    @example(script=[_finish(1), _start(1), _READ])  # the finish outraced its start
    @example(script=[_start(1), _start(1, weight=2.0), _finish(1)])  # re-announce, pending
    @example(script=[_start(1), _READ, _start(1, protocol="vlb"), _demand(1, 5e8)])
    @example(script=[_start(1), _finish(1), _start(1, weight=2.0), _READ])
    @example(script=[_start(2), _demand(2, 5e8), _demand(3, 2e9), _start(3), _finish(2)])
    @example(script=[_start(1), ("local", "protocol", FlowSpec(1, 1, 0, "vlb")),
                     _start(2), _finish(1), _start(1)])
    def test_every_settle_matches(self, script):
        assert _run(script) >= 1

    def test_a_cancelled_pair_bumps_both_generations_by_two(self):
        table = FlowTable()
        journal = [(EVENT_FLOW_START, FlowSpec(4, 1, 0)), (EVENT_FLOW_FINISH, 4)]
        table.settle(journal)
        assert (table.generation, table.membership_generation) == (2, 2)
        assert table.content_key == FlowTable().content_key

    def test_a_finish_before_its_start_leaves_the_start(self):
        table = FlowTable()
        spec = FlowSpec(4, 1, 0)
        table.settle([(EVENT_FLOW_FINISH, 4), (EVENT_FLOW_START, spec)])
        assert list(table) == [spec]
        assert (table.generation, table.membership_generation) == (1, 1)

    def test_survivors_follow_the_flows_already_held_in_start_order(self):
        table = FlowTable()
        table.add(FlowSpec(7, 1, 0))
        table.add(FlowSpec(8, 1, 0))
        table.settle([
            (EVENT_FLOW_START, FlowSpec(3, 1, 0)),
            (EVENT_FLOW_START, FlowSpec(7, 2, 0)),  # held: overwritten in place
            (EVENT_FLOW_START, FlowSpec(1, 1, 0)),
            (EVENT_FLOW_FINISH, 8),
        ])
        assert list(table.flow_ids()) == [7, 3, 1]
        assert table.get(7).src == 2


class TestUnknownEvent:
    def test_settle_raises_after_what_came_before(self):
        table = FlowTable()
        late = (EVENT_FLOW_START, FlowSpec(2, 1, 0))
        journal = [(EVENT_FLOW_START, FlowSpec(1, 1, 0)), (99, 1), late]
        with pytest.raises(ReproError, match="unknown broadcast event 99"):
            table.settle(journal)
        assert list(table.flow_ids()) == [1]
        assert journal == [late]  # still journaled, as it would still arrive
        table.settle(journal)
        assert list(table.flow_ids()) == [1, 2]

    def test_a_controller_raises_at_its_next_read(self, torus2d):
        ctrl = RateController(torus2d, node=0)
        ctrl.on_broadcast(99, 1)  # journaled: nothing is checked on arrival
        with pytest.raises(ReproError, match="unknown broadcast event 99"):
            ctrl.recompute(RHO)
        assert ctrl.journal == []


class TestControllerJournal:
    """The controller settles at each read point and keeps its epochs."""

    def _drive(self, topo, script, journaled: bool, rho: int):
        ctrl = RateController(topo, node=0, config=ControllerConfig(recompute_interval_ns=rho))
        now = 0
        for kind, event, data in script:
            now += usec(100)
            if kind == "read":
                ctrl.maybe_recompute(now)
            elif journaled:
                ctrl.on_broadcast(event, data, now)
            elif event == EVENT_FLOW_START:
                ctrl.on_flow_learned(data, now)
            elif event == EVENT_FLOW_FINISH:
                ctrl.on_flow_finished(data, now)
            else:
                ctrl.on_demand_update(*data)
        ctrl.recompute(now + RHO)
        stats = [(s.at_ns, s.n_flows, s.skipped) for s in ctrl.stats]
        rates = ctrl.allocation.rates_bps
        return _state(ctrl.table), stats, list(rates.items())

    @given(script=st.lists(_steps.filter(lambda step: step[0] != "local"), max_size=40),
           rho=st.sampled_from((0, RHO)))
    @settings(max_examples=3 * _N_CASES, deadline=None)
    def test_journaled_controller_equals_eager(self, script, rho):
        topo = TorusTopology((3, 3))
        assert self._drive(topo, script, True, rho) == self._drive(topo, script, False, rho)

    def test_a_settle_that_moves_membership_drops_the_level(self, torus2d):
        ctrl = RateController(torus2d, node=0)
        ctrl.on_flow_learned(FlowSpec(1, 1, 0), 0)
        ctrl.recompute(RHO)
        assert ctrl._level is not None
        ctrl.on_broadcast(EVENT_FLOW_START, FlowSpec(2, 3, 0))
        ctrl.on_broadcast(EVENT_FLOW_FINISH, 2)
        ctrl.table  # a read settles: the pair cancels, membership moved by 2
        assert ctrl._level is None

    def test_a_demand_only_settle_keeps_the_level(self, torus2d):
        ctrl = RateController(torus2d, node=0)
        ctrl.on_flow_learned(FlowSpec(1, 1, 0), 0)
        ctrl.recompute(RHO)
        level = ctrl._level
        ctrl.on_broadcast(EVENT_DEMAND_UPDATE, (1, 2e9))
        ctrl.on_broadcast(EVENT_FLOW_FINISH, 5)  # unknown id: a no-op
        assert ctrl.table.get(1).demand_bps == 2e9
        assert ctrl._level is level
