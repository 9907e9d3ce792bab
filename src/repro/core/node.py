"""One R2C2 rack node: the life of a flow (§3.1) for every environment.

An :class:`R2C2Node` announces its own flow events, picks the broadcast
tree each one travels, keeps the replay buffer a §3.2 drop notification
re-sends from, and applies what it learns from others — every table write
through its :class:`~repro.congestion.controller.RateController`.  An
announcement is ``(seq, tree_id, event, data)``, *data* being the spec
(start), the flow id (finish) or ``(flow_id, demand_bps)`` (demand).  The
packet simulator carries it in memory; :class:`~repro.core.rack.Rack` and
Maze send the 16-byte packet the ``*_flow`` methods encode, and there the
sender allocates from the spec its own bytes decode to, as receivers do.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..broadcast.fib import BroadcastFib
from ..broadcast.reliability import BroadcastSenderReliability, FailureRecovery
from ..broadcast.tree import TreeSelector
from ..congestion.controller import RateController
from ..congestion.flowstate import FlowSpec
from ..errors import ReproError
from ..routing.base import protocol_class
from ..selection.genetic import GeneticConfig, GeneticSelector
from ..selection.objective import UtilityMetric
from ..selection.search import SelectionProblem
from ..types import FlowId, NodeId
from ..wire.packets import (
    EVENT_DEMAND_UPDATE,
    EVENT_FLOW_FINISH,
    EVENT_FLOW_START,
    EVENT_REANNOUNCE,
    BroadcastPacket,
    RouteUpdatePacket,
)

#: Protocol a new flow starts with (§3.4: "new flows start with minimal
#: routing").
_DEFAULT_PROTOCOL = "rps"
#: Candidate protocols the routing-selection process may assign.
_SELECTION_PROTOCOLS = ("rps", "vlb")
#: Broadcasts a node keeps for §3.2 drop-triggered re-sends.
_REPLAY_WINDOW = 256

#: ``(seq, tree_id, event, data)``: one broadcast to put on tree *tree_id*.
Announcement = Tuple[int, int, int, object]


def flow_spec(flow, start_time_ns: int) -> FlowSpec:
    """The spec announcing *flow* (anything with the flow fields, such as
    a ``SimFlow``), started at *start_time_ns*."""
    return FlowSpec(
        flow.flow_id, flow.src, flow.dst, flow.protocol, flow.weight,
        flow.priority, start_time_ns=start_time_ns, tenant=flow.tenant,
    )


class R2C2Node:
    """The per-node brain: flow table, rate computation, route selection.

    The node runs *controller*, as node *node* (default: the controller's
    own).  A rack's nodes share the controller's link-weight cache and
    allocation memo; nodes that share one controller (the simulator's
    shared mode, Maze) pass ``learns=False``, since the sender's own call
    already applied every event to the one table.  A learning node's
    received announcements go to its controller's journal and reach the
    table at the controller's next read (:meth:`learn`).
    """

    def __init__(
        self,
        topology,
        fib: BroadcastFib,
        controller: RateController,
        node: Optional[NodeId] = None,
        learns: bool = True,
    ) -> None:
        self.node = controller.node if node is None else node
        self.controller = controller
        self.learns = learns
        self._topology = topology
        self.tree_selector = TreeSelector(range(fib.n_trees), start=self.node)
        self.reliability = BroadcastSenderReliability(_REPLAY_WINDOW, max_retransmits=None)
        self.failure_recovery = FailureRecovery()
        self.broadcasts_sent = 0

    # ------------------------------------------------------------------
    # Announcing (this node is the sender)
    # ------------------------------------------------------------------
    def start(self, spec: FlowSpec, now_ns: int) -> Announcement:
        """Start a local flow: the sender knows its own flows at once
        (§3.3.2), the others when the announcement reaches them."""
        self.controller.on_flow_started(spec, now_ns)
        return self._announce(EVENT_FLOW_START, spec)

    def finish(self, flow_id: FlowId, now_ns: int) -> Announcement:
        """End a local flow."""
        self.controller.on_flow_finished(flow_id, now_ns)
        return self._announce(EVENT_FLOW_FINISH, flow_id)

    def demand(self, flow_id: FlowId, demand_bps: float) -> Announcement:
        """Announce a local host-limited flow's new demand estimate."""
        self.controller.on_demand_update(flow_id, demand_bps)
        return self._announce(EVENT_DEMAND_UPDATE, (flow_id, demand_bps))

    def reannounce(self, spec: FlowSpec, now_ns: int) -> Announcement:
        """§3.2 recovery: re-broadcast an ongoing local flow as a start,
        as this node's table holds it (its demand included), or as *spec*
        if the table lost it.  The sender refreshes its own entry without
        re-running the young-flow admission (the flow is not new)."""
        held = self.controller.table.get(spec.flow_id)
        if held is not None:
            spec = held
        self.controller.on_flow_learned(spec, now_ns)
        return self._announce(EVENT_FLOW_START, spec)

    def resend(self, seq: int) -> Optional[Announcement]:
        """§3.2: a forwarder dropped broadcast *seq*; re-send it on the next
        tree (``None``: it aged out of the replay window)."""
        entry = self.reliability.on_drop_notification(seq)
        if entry is None:
            return None
        entry.tree_id = self.tree_selector.choose()
        return (seq, entry.tree_id) + entry.payload

    def _announce(self, event: int, data) -> Announcement:
        tree_id = self.tree_selector.choose()
        seq = self.reliability.register((event, data), tree_id)
        self.broadcasts_sent += 1
        return seq, tree_id, event, data

    # ------------------------------------------------------------------
    # Learning (another node's announcement reached this one)
    # ------------------------------------------------------------------
    def learn(self, event: int, data, now_ns: int) -> None:
        """Journal another node's announced *event* for this node's table.

        The controller applies it at its next read (a recompute, a rate, a
        table lookup), settling everything learned since the previous one
        in a single pass that ends exactly where applying each event on
        arrival would (:meth:`FlowTable.settle`); at ρ = 0 a start or
        finish recomputes at once.  An unknown event raises ``ReproError``
        at the settle.
        """
        self.controller.on_broadcast(event, data, now_ns)

    def learner(self, clock: Callable[[], int]) -> Optional[Callable[[tuple], None]]:
        """The one callable a deliverer hands each copy's ``(event, data)``
        payload, resolved once: the controller journal's bound
        ``list.append`` (ρ > 0), or :meth:`learn` at ``clock()`` (ρ = 0,
        which owes each start and finish a recompute).  ``None`` for a node
        that learns nothing.
        """
        if not self.learns:
            return None
        controller = self.controller
        if controller.config.recompute_interval_ns:
            return controller.journal.append
        learn = self.learn
        return lambda payload: learn(*payload, clock())

    # ------------------------------------------------------------------
    # The wire: 16-byte broadcast packets (Rack, Maze)
    # ------------------------------------------------------------------
    def start_flow(
        self,
        flow_id: FlowId,
        dst: NodeId,
        protocol: Optional[str] = None,
        weight: float = 1.0,
        priority: int = 0,
        now_ns: int = 0,
        tenant: Optional[str] = None,
    ) -> bytes:
        """Begin a flow; returns the encoded start broadcast.

        The local table holds the spec the packet decodes to, as remote
        tables do: weight in 1/16 steps, the tenant local to this node.  A
        value the packet cannot carry raises ``WireFormatError`` before
        anything is applied or registered.
        """
        spec = FlowSpec(
            flow_id, self.node, dst, protocol or _DEFAULT_PROTOCOL, weight, priority
        )
        wire = FlowSpec.from_wire(_on_wire(spec), now_ns, tenant)
        return _encode(self.start(wire, now_ns), wire)

    def finish_flow(self, flow_id: FlowId, now_ns: int = 0) -> bytes:
        """End a flow; returns the encoded finish broadcast."""
        spec = self._local(flow_id)
        return _encode(self.finish(flow_id, now_ns), spec)

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> bytes:
        """Announce a new demand estimate for a local host-limited flow; the
        local table takes the demand the packet carries, as receivers do."""
        spec = self._local(flow_id)
        demand_bps = _on_wire(spec.with_demand(demand_bps)).demand_bps
        return _encode(self.demand(flow_id, demand_bps), spec)

    def reannounce_flows(self, now_ns: int = 0) -> List[bytes]:
        """After a failure: re-broadcast all ongoing local flows (§3.2)."""
        local = self.controller.table.flows_from(self.node)
        flows = self.failure_recovery.flows_to_reannounce(local)
        return [_encode(self.reannounce(spec, now_ns), spec) for spec in flows]

    def handle_broadcast(self, data: bytes, now_ns: int = 0) -> None:
        """Decode and apply a received broadcast packet."""
        packet = BroadcastPacket.decode(data)
        if packet.src == self.node:
            return  # our own announcement echoed back
        event = packet.event
        if event in (EVENT_FLOW_START, EVENT_REANNOUNCE):
            self.learn(EVENT_FLOW_START, FlowSpec.from_wire(packet, now_ns), now_ns)
        elif event == EVENT_DEMAND_UPDATE:
            self.learn(event, (packet.flow_id, packet.demand_bps), now_ns)
        else:
            self.learn(event, packet.flow_id, now_ns)

    def _local(self, flow_id: FlowId) -> FlowSpec:
        spec = self.controller.table.get(flow_id)
        if spec is None or spec.src != self.node:
            raise ReproError(f"flow {flow_id} is not a local active flow")
        return spec

    def handle_route_update(self, data: bytes) -> None:
        """Apply a routing re-assignment packet (§3.4), all of it or none:
        every protocol id resolves before the first table write."""
        packet = RouteUpdatePacket.decode(data)
        updates = [(flow_id, protocol_class(protocol_id).name)
                   for flow_id, protocol_id in packet.assignments]
        for flow_id, protocol in updates:
            self.controller.on_protocol_update(flow_id, protocol)

    def rates(self) -> Dict[FlowId, float]:
        """Current enforced rates for this node's own flows."""
        return self.controller.local_rates()

    # ------------------------------------------------------------------
    # Routing-protocol selection (§3.4)
    # ------------------------------------------------------------------
    def select_routes(
        self,
        utility: Optional[UtilityMetric] = None,
        ga_config: Optional[GeneticConfig] = None,
        min_improvement: float = 0.01,
    ) -> Tuple[List[bytes], float]:
        """Run the selection heuristic over the rack's current flows.

        Returns ``(route_update_packets, relative_improvement)``.  Packets
        are empty when the best found assignment does not beat the current
        one by at least *min_improvement* ("if a significant improvement is
        possible, their routing protocols are changed").  The local table is
        updated; remote tables converge when the packets are delivered.
        """
        flows = self.controller.table.snapshot()
        if not flows:
            return [], 0.0
        problem = SelectionProblem(
            self._topology,
            flows,
            protocols=_SELECTION_PROTOCOLS,
            utility=utility,
            provider=self.controller.provider,
            headroom=self.controller.config.headroom,
        )
        current = problem.current_assignment()
        current_utility = problem.fitness(current)
        result = GeneticSelector(ga_config).search(problem)
        if current_utility <= 0:
            improvement = math.inf if result.utility > 0 else 0.0
        else:
            improvement = (result.utility - current_utility) / current_utility
        if improvement < min_improvement:
            return [], improvement

        assignments = []
        for spec, idx in zip(flows, result.assignment):
            protocol = problem.protocols[idx]
            if protocol != spec.protocol:
                assignments.append(
                    (spec.flow_id, protocol_class(protocol).protocol_id)
                )
                self.controller.on_protocol_update(spec.flow_id, protocol)
        packets = []
        for start in range(0, len(assignments), RouteUpdatePacket.MAX_ENTRIES):
            chunk = tuple(assignments[start : start + RouteUpdatePacket.MAX_ENTRIES])
            packets.append(RouteUpdatePacket(assignments=chunk).encode())
        return packets, improvement


def _packet(spec: FlowSpec, event: int, tree_id: int = 0) -> BroadcastPacket:
    """The broadcast announcing *event* for *spec* on tree *tree_id*."""
    return BroadcastPacket(
        event, spec.src, spec.dst, spec.flow_id, spec.weight, spec.priority,
        spec.demand_bps, tree_id, protocol_class(spec.protocol).protocol_id,
    )


def _on_wire(spec: FlowSpec) -> BroadcastPacket:
    """What a broadcast of *spec* decodes to."""
    return BroadcastPacket.decode(_packet(spec, EVENT_FLOW_START).encode())


def _encode(announcement: Announcement, spec: FlowSpec) -> bytes:
    """The 16-byte packet carrying *announcement* of *spec*'s flow."""
    _seq, tree_id, event, data = announcement
    if event == EVENT_DEMAND_UPDATE:
        spec = spec.with_demand(data[1])
    return _packet(spec, event, tree_id).encode()
