"""The rack facade: R2C2 as a library.

:class:`Rack` wires a topology, the broadcast FIB and one
:class:`~repro.core.node.R2C2Node` per node together, and plays the role of
an idealized control-plane fabric: packets a node emits are delivered to
every other node (optionally counting the bytes the broadcast trees would
carry).  This is the object the examples and the quickstart use; the packet
simulator and the Maze platform replace the idealized delivery with real
queues.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..broadcast.fib import BroadcastFib
from ..broadcast.overhead import broadcast_bytes_total
from ..congestion.controller import ControllerConfig, RateController
from ..congestion.linkweights import WeightProvider
from ..congestion.waterfill import RateAllocation
from ..errors import ReproError
from ..lru import BoundedLru
from ..selection.genetic import GeneticConfig
from ..selection.objective import UtilityMetric
from ..topology.base import Topology
from ..types import FlowId, NodeId
from .node import R2C2Node


class Rack:
    """A whole rack running R2C2, with instantaneous control delivery.

    Every node runs the control loop *config* describes; by default the
    paper's 5 % headroom and 500 µs epochs, with young flows granted the
    mean allocated rate.  Broadcasts use four trees per source.
    """

    def __init__(
        self, topology: Topology, config: Optional[ControllerConfig] = None
    ) -> None:
        self.topology = topology
        self.config = config or ControllerConfig(initial_rate_policy="mean_allocated")
        self.fib = BroadcastFib(topology)
        self.provider = WeightProvider(topology)
        # Node views agree once a broadcast is delivered, so one memo lets
        # an epoch cost one water-fill per distinct view, not one per node.
        allocations = BoundedLru(topology.n_nodes)
        self.nodes: List[R2C2Node] = [
            R2C2Node(
                topology,
                self.fib,
                RateController(
                    topology,
                    node,
                    provider=self.provider,
                    config=self.config,
                    allocation_cache=allocations,
                ),
            )
            for node in topology.nodes()
        ]
        self._next_flow_id = 0
        self._now_ns = 0
        self.control_bytes_on_wire = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        """The rack's logical clock."""
        return self._now_ns

    def advance_time(self, delta_ns: int) -> List[RateAllocation]:
        """Move the clock forward, triggering due recomputations."""
        if delta_ns < 0:
            raise ReproError("time cannot go backwards")
        self._now_ns += delta_ns
        allocations = []
        for node in self.nodes:
            allocation = node.controller.maybe_recompute(self._now_ns)
            if allocation is not None:
                allocations.append(allocation)
        return allocations

    # ------------------------------------------------------------------
    # Flow API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: NodeId,
        dst: NodeId,
        protocol: Optional[str] = None,
        weight: float = 1.0,
        priority: int = 0,
        tenant: Optional[str] = None,
    ) -> FlowId:
        """Start a flow from *src* to *dst*; returns its rack-unique id."""
        if src == dst:
            raise ReproError("flows must connect distinct nodes")
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        packet = self.nodes[src].start_flow(
            flow_id,
            dst,
            protocol=protocol,
            weight=weight,
            priority=priority,
            now_ns=self._now_ns,
            tenant=tenant,
        )
        self._deliver_broadcast(src, packet)
        return flow_id

    def finish_flow(self, flow_id: FlowId) -> None:
        """End a flow (its sender announces the finish)."""
        src = self._owner_of(flow_id)
        packet = self.nodes[src].finish_flow(flow_id, now_ns=self._now_ns)
        self._deliver_broadcast(src, packet)

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> None:
        """Announce a host-limited flow's new demand."""
        src = self._owner_of(flow_id)
        packet = self.nodes[src].update_demand(flow_id, demand_bps)
        self._deliver_broadcast(src, packet)

    def _owner_of(self, flow_id: FlowId) -> NodeId:
        # Tables are eventually consistent: ask node 0, then the others.
        for node in self.nodes:
            spec = node.controller.table.get(flow_id)
            if spec is not None:
                return spec.src
        raise ReproError(f"unknown flow {flow_id}")

    def _deliver_broadcast(self, src: NodeId, packet: bytes) -> None:
        self.control_bytes_on_wire += broadcast_bytes_total(
            self.topology.n_nodes, len(packet)
        )
        for node in self.nodes:
            if node.node != src:
                node.handle_broadcast(packet, now_ns=self._now_ns)

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    def recompute_all(self) -> RateAllocation:
        """Force an immediate recomputation on every node; returns node 0's
        allocation (all are identical given identical tables)."""
        allocation = None
        for node in self.nodes:
            allocation = node.controller.recompute(self._now_ns)
        assert allocation is not None
        return self.nodes[0].controller.allocation or allocation

    def rates(self) -> Dict[FlowId, float]:
        """Enforced rate of every active flow (gathered from its sender)."""
        out: Dict[FlowId, float] = {}
        for node in self.nodes:
            out.update(node.rates())
        return out

    def rate_of(self, flow_id: FlowId) -> float:
        """Enforced rate of one flow."""
        return self.nodes[self._owner_of(flow_id)].controller.rate_for(flow_id)

    def active_flows(self) -> List:
        """Snapshot of the rack's traffic matrix (node 0's view)."""
        return self.nodes[0].controller.table.snapshot()

    # ------------------------------------------------------------------
    # Routing selection
    # ------------------------------------------------------------------
    def select_routes(
        self,
        coordinator: NodeId = 0,
        utility: Optional[UtilityMetric] = None,
        ga_config: Optional[GeneticConfig] = None,
        min_improvement: float = 0.01,
    ) -> float:
        """Run §3.4's selection on *coordinator* and deliver the updates.

        Returns the relative utility improvement achieved (0.0 when the
        assignment was left unchanged).
        """
        packets, improvement = self.nodes[coordinator].select_routes(
            utility=utility, ga_config=ga_config, min_improvement=min_improvement
        )
        for packet in packets:
            self.control_bytes_on_wire += len(packet) * (self.topology.n_nodes - 1)
            for node in self.nodes:
                if node.node != coordinator:
                    node.handle_route_update(packet)
        return improvement

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def inject_link_failure(self, src: NodeId, dst: NodeId) -> int:
        """Report a failed link rack-wide; every node re-announces its flows.

        Returns the number of re-announcement broadcasts generated.
        """
        count = 0
        for node in self.nodes:
            node.failure_recovery.on_link_failure(src, dst)
        for node in self.nodes:
            for packet in node.reannounce_flows(self._now_ns):
                self._deliver_broadcast(node.node, packet)
                count += 1
        return count

    def tables_consistent(self) -> bool:
        """True if every node holds the identical set of flows, down to
        every field the broadcast carries (the allocation memo's key)."""
        return len({node.controller.table.content_key for node in self.nodes}) == 1
