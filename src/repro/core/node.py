"""One R2C2 rack node: the complete control plane of §3.

An :class:`R2C2Node` owns the node's flow table (fed by decoding real
16-byte broadcast packets), its rate controller, its broadcast-tree selector
and reliability state.  Methods that *announce* something return the encoded
packets to put on the wire; the surrounding environment (the
:class:`~repro.core.rack.Rack` facade, the simulator, the Maze platform)
decides how those bytes travel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

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


class R2C2Node:
    """The per-node brain: flow table, rate computation, route selection.

    The node runs *controller* (whose ``node`` it is); a rack's nodes share
    the controller's link-weight cache and allocation memo.
    """

    def __init__(self, topology, fib: BroadcastFib, controller: RateController) -> None:
        self.node = controller.node
        self.controller = controller
        self._topology = topology
        self.tree_selector = TreeSelector(fib.trees_for(self.node))
        self.reliability = BroadcastSenderReliability()
        self.failure_recovery = FailureRecovery()
        self.broadcasts_sent = 0
        self.broadcasts_received = 0

    # ------------------------------------------------------------------
    # Local flow lifecycle (this node is the sender)
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

        The local table learns the flow immediately (the sender always knows
        its own flows, §3.3.2); remote nodes learn when the returned packet
        reaches them.  Both hold the spec the packet decodes to: weight in
        1/16 steps, the tenant local to this node.
        """
        spec = FlowSpec(
            flow_id=flow_id,
            src=self.node,
            dst=dst,
            protocol=protocol or _DEFAULT_PROTOCOL,
            weight=weight,
            priority=priority,
        )
        packet = self._packet(spec, EVENT_FLOW_START)
        wire = FlowSpec.from_wire(BroadcastPacket.decode(packet.encode()), now_ns, tenant)
        self.controller.on_flow_started(wire, now_ns)
        return self._send(packet)

    def finish_flow(self, flow_id: FlowId, now_ns: int = 0) -> bytes:
        """End a flow; returns the encoded finish broadcast."""
        spec = self.controller.table.get(flow_id)
        if spec is None or spec.src != self.node:
            raise ReproError(f"flow {flow_id} is not a local active flow")
        self.controller.on_flow_finished(flow_id, now_ns)
        return self._send(self._packet(spec, EVENT_FLOW_FINISH))

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> bytes:
        """Announce a new demand estimate for a local host-limited flow; the
        local table takes the demand the packet carries, as receivers do."""
        spec = self.controller.table.get(flow_id)
        if spec is None or spec.src != self.node:
            raise ReproError(f"flow {flow_id} is not a local active flow")
        packet = self._packet(spec.with_demand(demand_bps), EVENT_DEMAND_UPDATE)
        self.controller.on_demand_update(flow_id, BroadcastPacket.decode(packet.encode()).demand_bps)
        return self._send(packet)

    def reannounce_flows(self) -> List[bytes]:
        """After a failure: re-broadcast all ongoing local flows (§3.2)."""
        local = self.controller.table.flows_from(self.node)
        flows = self.failure_recovery.flows_to_reannounce(local)
        return [self._send(self._packet(spec, EVENT_REANNOUNCE)) for spec in flows]

    @staticmethod
    def _packet(spec: FlowSpec, event: int) -> BroadcastPacket:
        """The broadcast announcing *event* for *spec*, its tree not yet chosen."""
        return BroadcastPacket(
            event, spec.src, spec.dst, spec.flow_id, spec.weight, spec.priority,
            spec.demand_bps, protocol_id=protocol_class(spec.protocol).protocol_id,
        )

    def _send(self, packet: BroadcastPacket) -> bytes:
        """Encode *packet* on the next broadcast tree and register it for
        retransmission (a value the 16-byte packet cannot carry raises
        ``WireFormatError`` before anything is registered)."""
        tree = self.tree_selector.choose()
        data = replace(packet, tree_id=tree.tree_id).encode()
        self.reliability.register(data, tree.tree_id)
        self.broadcasts_sent += 1
        return data

    # ------------------------------------------------------------------
    # Remote events (broadcast packets reaching this node)
    # ------------------------------------------------------------------
    def handle_broadcast(self, data: bytes, now_ns: int = 0) -> None:
        """Decode and apply a received broadcast packet."""
        packet = BroadcastPacket.decode(data)
        self.broadcasts_received += 1
        if packet.event in (EVENT_FLOW_START, EVENT_REANNOUNCE):
            if packet.src == self.node:
                return  # our own announcement echoed back
            self.controller.on_flow_learned(FlowSpec.from_wire(packet, now_ns), now_ns)
        elif packet.event == EVENT_FLOW_FINISH:
            if packet.src != self.node:
                self.controller.on_flow_finished(packet.flow_id, now_ns)
        elif packet.event == EVENT_DEMAND_UPDATE:
            if packet.src != self.node:
                self.controller.on_demand_update(packet.flow_id, packet.demand_bps)
        else:
            raise ReproError(f"unknown broadcast event {packet.event}")

    def handle_route_update(self, data: bytes) -> None:
        """Apply a routing re-assignment packet (§3.4)."""
        packet = RouteUpdatePacket.decode(data)
        for flow_id, protocol_id in packet.assignments:
            protocol = protocol_class(protocol_id).name
            self.controller.on_protocol_update(flow_id, protocol)

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    def maybe_recompute(self, now_ns: int):
        """Periodic recomputation hook (returns the allocation when run)."""
        return self.controller.maybe_recompute(now_ns)

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
