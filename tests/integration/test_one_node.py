"""One R2C2 node: `Rack`, the simulator and Maze run the same life of a flow.

:class:`~repro.core.node.R2C2Node` is the only code that builds
announcements, rotates broadcast trees, holds the replay buffer and maps a
broadcast event to a controller call; the three environments only move
what it announces.  One flow-event script driven through all three must
leave every flow table with the same contents, and a static guard keeps
the simulator's and Maze's stacks from growing a copy of their own.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.broadcast import BroadcastFib
from repro.congestion.controller import ControllerConfig, RateController
from repro.congestion.linkweights import WeightProvider
from repro.core import Rack
from repro.core.node import flow_spec
from repro.maze import MazePlatform, MazeR2C2Stack
from repro.sim import EventLoop, RackNetwork
from repro.sim.flows import SimFlow
from repro.sim.stacks.r2c2 import PerNodeControlPlane, R2C2Stack
from repro.topology import TorusTopology
from repro.wire import BroadcastPacket
from repro.workloads import FlowArrival

#: ``(flow_id, src, dst, weight)``: three starts, then flow 1's demand
#: drops to a whole number of Mbps, flow 2 finishes and every ongoing flow
#: is re-announced.  Every value is one the 16-byte packet carries exactly.
_STARTS = [(0, 1, 5, 1.0), (1, 3, 7, 2.0), (2, 6, 2, 0.5)]
_DEMAND = (1, 3e9)
_FINISH = 2


def _flow(flow_id, src, dst, weight):
    return SimFlow(FlowArrival(flow_id, src, dst, 10**9, 0, weight=weight))


def _rack_keys(topo):
    rack = Rack(topo)
    for flow_id, src, dst, weight in _STARTS:
        assert rack.start_flow(src, dst, weight=weight) == flow_id
    rack.update_demand(*_DEMAND)
    rack.finish_flow(_FINISH)
    assert rack.inject_link_failure(0, 1) == 2  # re-announces flows 0 and 1
    return [node.controller.table.content_key for node in rack.nodes]


def _per_node_sim_keys(topo):
    loop = EventLoop()
    network = RackNetwork(loop, topo, fib=BroadcastFib(topo))
    control = PerNodeControlPlane(
        loop, network, topo, WeightProvider(topo), ControllerConfig()
    )
    flows = {}
    stacks = [R2C2Stack(n, loop, network, control, flows) for n in topo.nodes()]
    network.stack_at[:] = stacks

    def send(flow, announce):
        # The stack's transport alone: start_flow would also pace data.
        stacks[flow.src]._announce(flow, announce(stacks[flow.src].r2c2))
        loop.run()  # no epochs are scheduled: this runs until deliveries settle

    for flow_id, src, dst, weight in _STARTS:
        flows[flow_id] = flow = _flow(flow_id, src, dst, weight)
        send(flow, lambda node: node.start(flow_spec(flow, 0), 0))
    send(flows[_DEMAND[0]], lambda node: node.demand(*_DEMAND))
    send(flows[_FINISH], lambda node: node.finish(_FINISH, loop.now))
    for flow_id in (0, 1):
        flow = flows[flow_id]
        send(flow, lambda node: node.reannounce(flow_spec(flow, 0), loop.now))
    return [controller.table.content_key for controller in control.controllers]


def test_a_node_that_settles_between_deliveries_keeps_learning():
    """Each read settles the journal in place: the append a stack resolved
    once still feeds the controller after any number of settles."""
    topo = TorusTopology((3, 3))
    loop = EventLoop()
    network = RackNetwork(loop, topo, fib=BroadcastFib(topo))
    control = PerNodeControlPlane(
        loop, network, topo, WeightProvider(topo), ControllerConfig()
    )
    flows = {}
    stacks = [R2C2Stack(n, loop, network, control, flows) for n in topo.nodes()]
    network.stack_at[:] = stacks
    for flow_id, src, dst, weight in _STARTS:
        flows[flow_id] = flow = _flow(flow_id, src, dst, weight)
        stacks[src]._announce(flow, stacks[src].r2c2.start(flow_spec(flow, 0), 0))
        loop.run()
        assert {len(c.table) for c in control.controllers} == {flow_id + 1}
    stacks[6]._announce(flows[_FINISH], stacks[6].r2c2.finish(_FINISH, loop.now))
    loop.run()
    assert {tuple(c.table.flow_ids()) for c in control.controllers} == {(0, 1)}
    for stack, controller in zip(stacks, control.controllers):
        assert stack._learn.__self__ is controller.journal


def _maze_keys(topo):
    fib = BroadcastFib(topo)
    platform = MazePlatform(topo, fib=fib, step_ns=500, slot_bytes=9 * 1024)
    controller = RateController(topo, 0, config=ControllerConfig())
    flows = {}
    stacks = [MazeR2C2Stack(n, platform, controller, fib, flows) for n in topo.nodes()]
    for flow_id, src, dst, weight in _STARTS:
        flows[flow_id] = _flow(flow_id, src, dst, weight)
        stacks[src].start_flow(flows[flow_id], now_ns=0)
    for src, data in [
        (3, stacks[3].r2c2.update_demand(*_DEMAND)),
        (6, stacks[6].r2c2.finish_flow(_FINISH)),
        *[(src, data) for src in (1, 3) for data in stacks[src].r2c2.reannounce_flows()],
    ]:
        platform.server(src).app_broadcast(data)
    return [controller.table.content_key]


def test_one_script_leaves_every_table_equal():
    topo = TorusTopology((3, 3))
    rack, sim, maze = _rack_keys(topo), _per_node_sim_keys(topo), _maze_keys(topo)
    assert len(rack) == len(sim) == topo.n_nodes
    assert set(rack) == set(sim) == set(maze) == {rack[0]}
    assert rack[0][0] == 2  # flows 0 and 1


def test_a_maze_sender_allocates_from_the_weight_its_broadcast_carries():
    topo = TorusTopology((3, 3))
    fib = BroadcastFib(topo)
    platform = MazePlatform(topo, fib=fib, step_ns=500, slot_bytes=9 * 1024)
    controller = RateController(topo, 0, config=ControllerConfig())
    flows = {0: _flow(0, 0, 4, 1.7)}
    stack = MazeR2C2Stack(0, platform, controller, fib, flows)
    stack.start_flow(flows[0], now_ns=0)
    assert controller.table.get(0).weight == 1.6875  # round(1.7 * 16) / 16


def test_constructing_a_rack_resolves_no_broadcast_tree(monkeypatch):
    resolved = []
    real = BroadcastFib.tree

    def counted(fib, src, tree_id):
        resolved.append((src, tree_id))
        return real(fib, src, tree_id)

    monkeypatch.setattr(BroadcastFib, "tree", counted)
    rack = Rack(TorusTopology((8, 8, 8)))
    assert resolved == []
    # A node's rotation starts at its own id, over the FIB's four tree ids.
    data = rack.nodes[7].start_flow(0, 1)
    assert BroadcastPacket.decode(data).tree_id == 3
    assert resolved == []


# ----------------------------------------------------------------------
# Static guard: no fourth copy of the life of a flow
# ----------------------------------------------------------------------
_SRC = Path(repro.__file__).parent
_GUARDED = ("sim/stacks", "maze")
_BUILDERS = {"FlowSpec", "BroadcastPacket"}
_CONTROLLER_WRITES = {
    "on_flow_started", "on_flow_learned", "on_flow_finished", "on_demand_update", "on_broadcast",
}


def life_of_a_flow_calls(source: str):
    """``(line, call)`` for every spec / broadcast construction and every
    controller flow-event call in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in _BUILDERS or (isinstance(func, ast.Attribute) and name in _CONTROLLER_WRITES):
            found.append((node.lineno, ast.unparse(func)))
    return found


def test_guard_sees_every_form():
    source = (
        "spec = FlowSpec(1, 0, 2)\n"
        "packet = wire.BroadcastPacket(1, 0, 2, 3)\n"
        "self._controller.on_flow_started(spec, now)\n"
        "learner.on_flow_learned(spec, now)\n"
        "self.control.on_flow_finished(1, node)\n"
        "controller.on_demand_update(1, 1e9)\n"
        "self.r2c2.start(spec, now)\n"
        "BroadcastPacket.decode(data)\n"
    )
    assert life_of_a_flow_calls(source) == [
        (1, "FlowSpec"),
        (2, "wire.BroadcastPacket"),
        (3, "self._controller.on_flow_started"),
        (4, "learner.on_flow_learned"),
        (5, "self.control.on_flow_finished"),
        (6, "controller.on_demand_update"),
    ]


@pytest.mark.parametrize("package", _GUARDED)
def test_only_the_node_runs_the_life_of_a_flow(package):
    files = sorted((_SRC / package).rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(_SRC)}:{line}: {call}"
        for path in files
        for line, call in life_of_a_flow_calls(path.read_text())
    ]
    assert offenders == [], "life-of-a-flow code outside repro.core.node:\n" + "\n".join(
        offenders
    )
