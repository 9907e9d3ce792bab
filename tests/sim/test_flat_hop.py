"""The flat packet hop: what the restructured send -> arrive -> deliver
chain (one event per hop; a port's finish only while a packet waits) must
keep (errors, node-id validation, scheduling with arguments) and must not
grow back (a closure per event or per link).
"""

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.broadcast import BroadcastFib
from repro.distsim.shard import ShardSim
from repro.errors import SimulationError
from repro.sim import KIND_BROADCAST, KIND_DATA, EventLoop, RackNetwork, SimConfig, SimPacket
from repro.topology import TorusTopology
from repro.workloads import FlowArrival

TOPO = TorusTopology((4, 4))


class _Sink:
    def __init__(self):
        self.received = []

    def deliver(self, packet):
        self.received.append(packet)


def _network(topology=TOPO, **kwargs):
    loop = EventLoop()
    network = RackNetwork(loop, topology, fib=BroadcastFib(topology, n_trees=2), **kwargs)
    sinks = [_Sink() for _ in topology.nodes()]
    network.stack_at[:] = sinks
    return loop, network, sinks


def _data(path):
    return SimPacket(KIND_DATA, 1, path[0], path[-1], 0, 1000, path=path)


def _broadcast(src):
    return SimPacket(KIND_BROADCAST, 1, src, 0, 0, 16, tree_id=1)


# ---------------------------------------------------------------------- #
# Event records carry their arguments
# ---------------------------------------------------------------------- #


class TestScheduleWithArguments:
    def test_arguments_reach_the_action(self):
        loop, seen = EventLoop(), []
        loop.schedule(5, seen.append, "relative")
        loop.schedule_at(3, lambda *args: seen.append(args), 1, 2)
        loop.schedule(7, lambda: seen.append("bare"))
        assert loop.run() == 3
        assert seen == [(1, 2), "relative", "bare"]

    def test_prio_is_keyword_only_and_orders_the_instant(self):
        loop, seen = EventLoop(), []
        loop.schedule(4, seen.append, "late", prio=9)
        loop.schedule_at(4, seen.append, "early", prio=2)
        loop.schedule(4, seen.append, 7)  # a third positional is an argument
        loop.run()
        assert seen == [7, "early", "late"]

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -1, "3"])
    def test_bad_times_rejected_before_anything_is_queued(self, bad):
        loop = EventLoop()
        for entry in (loop.schedule, loop.schedule_at):
            with pytest.raises(SimulationError):
                entry(bad, print, "x")
        assert loop.pending() == 0

    def test_a_reserved_sequence_number_orders_a_later_event(self):
        loop, seen = EventLoop(), []
        seq = loop.reserve_seq()
        loop.schedule(4, seen.append, "scheduled first")
        loop.schedule_at(4, seen.append, "reserved first", seq=seq)
        assert loop.run() == 2
        assert seen == ["reserved first", "scheduled first"]

    def test_schedule_batch_is_one_event_over_callables(self):
        loop, seen = EventLoop(), []
        loop.schedule_batch(2, [lambda: seen.append("a"), lambda: seen.append("b")])
        assert loop.pending() == 1 and loop.run() == 1
        assert seen == ["a", "b"]


# ---------------------------------------------------------------------- #
# A transmission is one engine call; the clock is an attribute
# ---------------------------------------------------------------------- #


def _mixed_schedule(seed: int, one_call: bool, budget: int = 400):
    """Drive a loop with a seeded mix of ``schedule``, transmissions and
    finishes armed with a reserved sequence number, all at a few colliding
    instants and priorities; events schedule more work as they run.  A
    transmission is :meth:`EventLoop.transmit` when *one_call*, else the
    ``reserve_seq()`` + ``schedule_at()`` pair it stands for.  Returns
    ``(clock, tag)`` per executed event."""
    rng = random.Random(seed)
    loop, seen, reserved = EventLoop(), [], []
    issued = [0]

    def act():
        tag = issued[0]
        issued[0] += 1
        op, prio = rng.randrange(3), rng.randrange(3)
        at = loop.now + rng.randrange(4)
        if op == 0:
            loop.schedule(at - loop.now, fire, tag, prio=prio)
        elif op == 1:
            if one_call:
                reserved.append(loop.transmit(at, prio, fire, tag))
            else:
                reserved.append(loop.reserve_seq())
                loop.schedule_at(at, fire, tag, prio=prio)
        elif reserved:
            loop.schedule_at(at, fire, tag, prio=prio, seq=reserved.pop(rng.randrange(len(reserved))))

    def fire(tag):
        seen.append((loop.now, tag))
        for _ in range(1 + rng.randrange(2)):
            if issued[0] < budget:
                act()

    for _ in range(8):
        act()
    loop.run_batch()
    return seen, loop.now, loop.events_processed


@pytest.mark.parametrize("seed", range(25))
def test_transmit_orders_events_as_reserve_then_schedule(seed):
    one_call = _mixed_schedule(seed, one_call=True)
    assert len(one_call[0]) > 20
    assert one_call == _mixed_schedule(seed, one_call=False)


def test_transmit_returns_the_finish_seq_and_queues_the_delivery_after_it():
    loop, seen = EventLoop(), []
    finish_seq = loop.transmit(10, 4, seen.append, "delivered")
    loop.schedule_at(10, seen.append, "finished", prio=4, seq=finish_seq)
    assert loop.reserve_seq() == finish_seq + 2
    loop.run()
    assert seen == ["finished", "delivered"] and loop.now == 10


_RUNNERS = {
    "run": lambda loop, end: loop.run(until_ns=end),
    "run_batch": lambda loop, end: loop.run_batch(until_ns=end),
    "run_window": lambda loop, end: loop.run_window(end),
}


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_now_is_the_clock_before_during_and_after_a_run(runner):
    loop, seen = EventLoop(), []
    assert loop.now == 0 and "now" in vars(loop)  # a plain attribute

    def stamp(at):
        seen.append((at, loop.now))

    for at in (5, 5, 9, 20):
        loop.schedule_at(at, stamp, at)
    _RUNNERS[runner](loop, 12)
    assert seen == [(5, 5), (5, 5), (9, 9)] and loop.now == 12
    _RUNNERS[runner](loop, 30)
    assert seen[-1] == (20, 20) and loop.now == 30
    loop.schedule(4, stamp, 34)
    loop.run() if runner == "run" else loop.run_batch()
    assert seen[-1] == (34, 34) and loop.now == 34


# ---------------------------------------------------------------------- #
# Forwarding errors kept
# ---------------------------------------------------------------------- #


class TestForwardingErrors:
    def test_packet_without_route(self):
        _, network, _ = _network()
        with pytest.raises(SimulationError, match="without a source route"):
            network.inject(0, SimPacket(KIND_DATA, 1, 0, 1, 0, 100))

    def test_route_disagrees_with_the_node_mid_path(self):
        loop, network, _ = _network()
        packet = _data((0, 1, 5))
        network.port(0, 4).send(packet)  # first hop lands on 4, route says 1
        with pytest.raises(SimulationError, match="at node 4 but route says 1"):
            loop.run()

    def test_route_over_a_missing_link(self):
        loop, network, _ = _network()
        network.inject(0, _data((0, 1, 10)))  # 1 and 10 are not neighbours
        with pytest.raises(SimulationError, match="no link 1 -> 10"):
            loop.run()

    def test_unknown_tree(self):
        _, network, _ = _network()
        packet = SimPacket(KIND_BROADCAST, 1, 0, 0, 0, 16, tree_id=2)
        with pytest.raises(repro.ReproError, match="unknown broadcast tree"):
            network.inject(0, packet)


# ---------------------------------------------------------------------- #
# Node ids must not wrap
# ---------------------------------------------------------------------- #


class TestNodeIdsDoNotWrap:
    """Forwarding indexes per-node tables; ``-1`` must not mean "the last
    node", so ids are checked where they enter the fabric."""

    @pytest.mark.parametrize("node", [-1, -16, 16, 1000])
    @pytest.mark.parametrize("make", [_broadcast, lambda node: _data((node, 1))])
    def test_inject_rejects_out_of_range(self, node, make):
        loop, network, sinks = _network()
        with pytest.raises(SimulationError, match=f"unknown node {node}"):
            network.inject(node, make(node))
        assert loop.pending() == 0 and not any(s.received for s in sinks)

    def test_in_range_still_delivers(self):
        loop, network, sinks = _network()
        network.inject(15, _broadcast(15))
        network.inject(15, _data((15, 12)))
        loop.run()
        assert [len(s.received) for s in sinks] == [1] * 12 + [2, 1, 1, 1]

    def _shard(self):
        trace = [FlowArrival(0, 0, 5, 3000, 0)]
        config = SimConfig(stack="r2c2", control_plane="per_node")
        return ShardSim(TOPO, trace, config, shard_id=0, owned_nodes=range(8))

    @pytest.mark.parametrize("node", [-1, 16])
    @pytest.mark.parametrize("make", [_broadcast, lambda node: _data((node, 1))])
    def test_partial_fabric_inject(self, node, make):
        with pytest.raises(SimulationError, match=f"unknown node {node}"):
            self._shard().network.inject(node, make(node))

    @pytest.mark.parametrize("dst", [-1, -9, 16])
    @pytest.mark.parametrize("packet", [_broadcast(9), _data((9, 0))])
    def test_boundary_arrival_rejects_out_of_range(self, dst, packet):
        shard = self._shard()
        with pytest.raises(SimulationError, match=f"unknown node {dst}"):
            shard.run_round(1000, [(500, 9, dst, packet)], at_grid=False)

    def test_boundary_arrival_in_range_is_delivered(self):
        shard = self._shard()
        packet = SimPacket(KIND_DATA, 0, 13, 1, 0, 1035, path=(13, 1), payload=1000)
        shard.run_round(1000, [(500, 13, 1, packet)], at_grid=False)
        assert shard.flows[0].bytes_received == 1000


# ---------------------------------------------------------------------- #
# Static guard: no closure per event or per link
# ---------------------------------------------------------------------- #

_SRC = Path(repro.__file__).parent
_SCHEDULERS = {"schedule", "schedule_at", "schedule_batch", "transmit"}


def _hot_path_files():
    sim = _SRC / "sim"
    return [
        sim / "engine.py",
        sim / "network.py",
        sim / "runner.py",
        *sorted((sim / "stacks").glob("*.py")),
        _SRC / "distsim" / "shard.py",
        _SRC / "validation" / "faults.py",
    ]


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _has_lambda(*nodes) -> bool:
    return any(isinstance(sub, ast.Lambda) for node in nodes for sub in ast.walk(node))


def _closure_sites(source: str):
    """``(line, what)`` for every lambda that is scheduled as an event,
    appended to a ``send_batched`` pending list, or installed as a port's
    deliver/drop hook (directly, or through a factory returning one)."""
    tree = ast.parse(source)
    # ``append`` and ``return`` are everywhere; a lambda in one is a port
    # hook or a pending finish only in the module that wires the ports.
    builds_ports = any(
        isinstance(node, ast.Call) and _callee(node) == "OutputPort" for node in ast.walk(tree)
    )
    sites, scheduling_calls = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _callee(node)
            arguments = [*node.args, *(kw.value for kw in node.keywords)]
            if name in _SCHEDULERS:
                scheduling_calls += 1
                if _has_lambda(*arguments):
                    sites.append((node.lineno, f"lambda passed to {name}"))
            elif name == "OutputPort" and _has_lambda(*arguments):
                sites.append((node.lineno, "lambda installed as a port hook"))
            elif name == "append" and builds_ports and _has_lambda(*arguments):
                sites.append((node.lineno, "lambda appended to a pending list"))
        elif builds_ports and isinstance(node, ast.Return) and node.value is not None:
            if _has_lambda(node.value):
                sites.append((node.lineno, "hook factory returns a lambda"))
        elif isinstance(node, ast.Assign) and _has_lambda(node.value):
            targets = [t.attr for t in node.targets if isinstance(t, ast.Attribute)]
            if {"_deliver", "_on_drop"} & set(targets):
                sites.append((node.lineno, "lambda stored as a port hook"))
    return sites, scheduling_calls


def test_hot_path_builds_no_closure_per_event_or_link():
    files = _hot_path_files()
    assert len(files) >= 10
    offenders, scheduling_calls = [], 0
    for path in files:
        sites, calls = _closure_sites(path.read_text())
        scheduling_calls += calls
        offenders += [f"{path.relative_to(_SRC)}:{line}: {what}" for line, what in sites]
    assert scheduling_calls >= 15, "the guard no longer sees the scheduling sites"
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "snippet",
    [
        "loop.schedule(5, lambda p=packet: port._finish(p))",
        "self.loop.schedule_at(t, lambda: None, prio=3)",
        "loop.schedule_batch(d, [lambda: a(), b])",
        "self._finish_seq = loop.transmit(t, self.prio, lambda p: arrived(1, p), packet)",
        "OutputPort(loop, 0, 1, 1e9, 0, q, deliver=lambda p: net.arrived(1, p))",
        "OutputPort(loop, 0, 1, 1e9, 0, q, sink)\npending.append((d, lambda: f(p)))",
        "OutputPort(loop, 0, 1, 1e9, 0, q, make(1))\ndef make(n):\n  return lambda p: arrived(n, p)",
        "self._deliver = lambda p: arrived(node, p)",
    ],
)
def test_the_guard_sees_each_closure_form(snippet):
    assert _closure_sites(snippet)[0]


def test_the_guard_allows_named_epoch_closures():
    source = "def start():\n  def tick():\n    loop.schedule(i, tick)\n  loop.schedule(i, tick)\n"
    assert _closure_sites(source) == ([], 2)
