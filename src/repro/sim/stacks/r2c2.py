"""The R2C2 host stack inside the packet simulator (paper §3, §4.2).

Sender side: per-flow token-bucket pacing at the controller-assigned rate,
per-packet path sampling by the flow's routing protocol, source-route
injection, and flow start/finish broadcasts that travel as real 16-byte
packets along the broadcast trees (consuming link bandwidth).

Receiver side: payload accounting, completion detection and reorder-buffer
measurement.

One control-plane class, :class:`PerNodeControlPlane`, maps every node to a
:class:`~repro.congestion.controller.RateController` (every table write is a
controller call) and has two modes:

* shared (``SimConfig(control_plane="shared")``, the default) — every node
  maps to the same controller.  Every node would compute identical
  allocations from identical broadcast-fed tables, so the simulator computes
  them once per epoch instead of once per node per epoch; the table is
  updated the moment a sender *emits* an event.
* per node (``control_plane="per_node"``) — full fidelity: one controller
  per node, updated only when a broadcast packet is actually *delivered* to
  that node (the sender applies its own events immediately).  Identical
  tables still cost one water-fill thanks to a shared allocation memo, so
  this mode is affordable and is used to validate the shared collapsing
  (`tests/integration/`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from ...congestion.controller import ControllerConfig, RateController
from ...congestion.flowstate import FlowSpec
from ...errors import SimulationError
from ...lru import BoundedLru
from ...types import NodeId
from ...wire.packets import (
    DATA_HEADER_SIZE,
    EVENT_DEMAND_UPDATE,
    EVENT_FLOW_FINISH,
    EVENT_FLOW_START,
)
from ..engine import EventLoop
from ..flows import SimFlow
from ..network import RackNetwork
from ..packets import (
    KIND_BROADCAST,
    KIND_DATA,
    KIND_DROP_NOTE,
    SimPacket,
    broadcast_packet_size,
)
from .base import HostStack

#: Human-readable event names the probe's broadcast sites are told.
_EVENT_NAMES = {
    EVENT_FLOW_START: "start",
    EVENT_FLOW_FINISH: "finish",
    EVENT_DEMAND_UPDATE: "demand",
}


class PerNodeControlPlane:
    """The simulator's control plane: each rack node's rate controller.

    Per node (the default here): remote nodes learn about flows only when
    the 16-byte broadcast packets actually reach them through the simulated
    fabric, so visibility skew is modelled exactly.  A shared allocation
    memo keeps the cost near the shared mode's: nodes whose tables agree
    (the overwhelmingly common case) reuse one water-fill result.

    Shared (``shared=True``): every node's entry is one rack-wide
    controller, so a broadcast delivery has nothing left to apply.

    The class keeps its per-node name in both modes because r2c2bench's
    span tracer (``benchmarks/r2c2bench/tracing.py``) hooks its constructor
    by that name.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: RackNetwork,
        topology,
        provider,
        config: ControllerConfig,
        telemetry=None,
        nodes=None,
        probe=None,
        shared: bool = False,
    ) -> None:
        self.loop = loop
        self.network = network
        self._config = config
        self._provider = provider
        #: nodes this plane manages — all of them in a serial run, one
        #: shard's subset under repro.distsim.  Ascending order keeps the
        #: epoch-tick iteration identical to the serial engine's.
        self._nodes: List[NodeId] = (
            list(topology.nodes()) if nodes is None else sorted(nodes)
        )
        # Shared mode's controller keeps its own one-entry memo: it is the
        # only reader, and a big memo would hold rack-wide allocations.
        cache = None if shared else BoundedLru(4096)
        self.controllers: List[RateController] = [
            RateController(
                topology,
                node,
                provider=provider,
                config=config,
                allocation_cache=cache,
                telemetry=telemetry,
            )
            for node in (self._nodes[:1] if shared else self._nodes)
        ]
        self._by_node: Dict[NodeId, RateController] = (
            dict.fromkeys(self._nodes, self.controllers[0])
            if shared
            else dict(zip(self._nodes, self.controllers))
        )
        self._stacks: List["R2C2Stack"] = []
        self._epoch_scheduled = False
        #: the run's observation surface (repro.sim.probe): every
        #: recomputed allocation is reported to it.
        self._probe = probe

    @property
    def provider(self):
        """The shared link-weight cache."""
        return self._provider

    @property
    def config(self) -> ControllerConfig:
        """The rack-wide controller configuration."""
        return self._config

    def register(self, stack: "R2C2Stack") -> None:
        """A node stack joins the control plane."""
        self._stacks.append(stack)

    def start_epochs(self) -> None:
        """Every controller recomputes at the same epoch boundaries
        (idempotent; ρ = 0 recomputes at every flow event instead)."""
        if self._epoch_scheduled:
            return
        self._epoch_scheduled = True
        interval = self._config.recompute_interval_ns
        if interval <= 0:
            return

        def tick() -> None:
            probe = self._probe
            for controller in self.controllers:
                controller.recompute(self.loop.now)
                if probe is not None:
                    probe.allocation(controller.allocation)
            if probe is not None:
                probe.control_epoch(nodes=len(self.controllers))
            for stack in self._stacks:
                stack.on_epoch()
            self.loop.schedule(interval, tick)

        self.loop.schedule(interval, tick)

    def on_flow_started(self, spec: FlowSpec, node: NodeId) -> None:
        """The sender's controller learns immediately; others by delivery."""
        self._by_node[node].on_flow_started(spec, self.loop.now)

    def on_flow_reannounced(self, spec: FlowSpec, node: NodeId) -> None:
        """§3.2 recovery: the sender refreshes its own table entry without
        re-running the young-flow admission (the flow is not new)."""
        self._by_node[node].on_flow_learned(spec, self.loop.now)

    def on_flow_finished(self, flow_id: int, node: NodeId) -> None:
        """The sender announced a finish."""
        self._by_node[node].on_flow_finished(flow_id, self.loop.now)

    def on_demand_update(self, flow_id: int, demand_bps: float, node: NodeId) -> None:
        """The sender announced a demand estimate."""
        self._by_node[node].on_demand_update(flow_id, demand_bps)

    def rate_for(self, flow_id: int, node: NodeId) -> float:
        """Current enforced rate for a flow, as node *node* sees it."""
        return self._by_node[node].rate_for(flow_id)

    def apply_broadcast(self, node: NodeId, src: NodeId, payload) -> None:
        """A broadcast packet reached *node*: apply it to that node's view."""
        controller = self._by_node[node]
        if controller is self._by_node.get(src):
            return  # the sender's controller already applied its own event
        event, data = payload
        if event == EVENT_FLOW_START:
            controller.on_flow_learned(data, self.loop.now)
        elif event == EVENT_FLOW_FINISH:
            controller.on_flow_finished(data, self.loop.now)
        elif event == EVENT_DEMAND_UPDATE:
            controller.on_demand_update(*data)
        else:
            raise SimulationError(f"unknown broadcast event {event}")

    def recompute_stats(self):
        """Aggregate recomputation statistics across all controllers."""
        return [stat for controller in self.controllers for stat in controller.stats]

    def recompute_stats_by_node(self):
        """Per-controller recomputation statistics (``{node: [stats, ...]}``).

        The sharded merge concatenates these in global node order, which
        reproduces :meth:`recompute_stats` of a serial run exactly.
        """
        return {c.node: list(c.stats) for c in self.controllers}


class R2C2Stack(HostStack):
    """One node's R2C2 data plane plus its control-plane hooks."""

    def __init__(
        self,
        node: NodeId,
        loop: EventLoop,
        network: RackNetwork,
        control: PerNodeControlPlane,
        flows_by_id: Dict[int, SimFlow],
        mtu_payload: int = 1500,
        seed: int = 0,
        n_trees: int = 4,
        metrics=None,
        probe=None,
    ) -> None:
        super().__init__(node, loop, network, probe)
        self.control = control
        self._flows = flows_by_id
        self._mtu = mtu_payload
        self._rng = random.Random((seed << 16) ^ node)
        self._n_trees = n_trees
        self._next_tree = node  # stagger tree choice across nodes
        self._metrics = metrics
        self._active_local: Set[int] = set()
        self._stalled: Set[int] = set()
        self._bcast_seq = 0
        #: demand estimators for host-limited local flows (§3.3.2).
        self._estimators: Dict[int, object] = {}
        #: recently sent broadcasts, for §3.2 drop-triggered retransmission
        #: (seq -> (flow, event, data)); bounded replay window.
        self._bcast_pending: Dict[int, tuple] = {}
        #: the shared provider's name -> routing-protocol lookup, resolved
        #: once: `_emit` asks it per packet.
        self._protocol = control.provider.protocol
        self.broadcast_retransmissions = 0
        control.register(self)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def start_flow(self, flow: SimFlow) -> None:
        if flow.src != self.node:
            raise SimulationError(
                f"flow {flow.flow_id} sourced at {flow.src}, not {self.node}"
            )
        if flow.src == flow.dst:
            raise SimulationError("self-flows are not meaningful in the rack fabric")
        spec = FlowSpec(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            protocol=flow.protocol,
            weight=flow.weight,
            priority=flow.priority,
            start_time_ns=self.loop.now,
            tenant=flow.tenant,
        )
        self.control.on_flow_started(spec, self.node)
        if self._probe is not None:
            self._probe.flow_start(flow)
        self._broadcast(flow, EVENT_FLOW_START, spec)
        self._active_local.add(flow.flow_id)
        if flow.app_rate_bps is not None:
            from ...congestion.demand import DemandEstimator

            interval = max(
                self.control.config.recompute_interval_ns, 1
            )
            self._estimators[flow.flow_id] = DemandEstimator(period_ns=interval)
        self._emit(flow)

    def _broadcast(self, flow: SimFlow, event: int, data=None) -> None:
        seq = self._bcast_seq
        self._bcast_seq += 1
        self._bcast_pending[seq] = (flow, event, data)
        if len(self._bcast_pending) > 256:
            self._bcast_pending.pop(next(iter(self._bcast_pending)))
        self._send_broadcast(flow, event, data, seq)

    def _send_broadcast(self, flow: SimFlow, event: int, data, seq: int) -> None:
        tree_id = self._next_tree % self._n_trees
        self._next_tree += 1
        if self._probe is not None:
            self._probe.bcast_announce(
                _EVENT_NAMES[event], flow.flow_id, self.node, tree_id
            )
        packet = SimPacket(
            kind=KIND_BROADCAST,
            flow_id=flow.flow_id,
            src=self.node,
            dst=flow.dst,
            seq=seq,
            size_bytes=broadcast_packet_size(),
            tree_id=tree_id,
            payload=(event, data if data is not None else flow.flow_id),
            sent_ns=self.loop.now,
        )
        self.network.inject(self.node, packet)

    def on_broadcast_dropped(self, dropped_at: NodeId, seq: int) -> None:
        """§3.2: "the node dropping a broadcast packet informs the sender
        who can then re-transmit" — retransmit on the next tree."""
        pending = self._bcast_pending.get(seq)
        if pending is None:
            return  # aged out of the replay window
        flow, event, data = pending
        self.broadcast_retransmissions += 1
        if self._probe is not None:
            self._probe.bcast_retransmit(flow.flow_id, dropped_at, seq)
        self._send_broadcast(flow, event, data, seq)

    def _emit(self, flow: SimFlow) -> None:
        flow_id = flow.flow_id
        sent = flow.bytes_sent
        size_bytes = flow.size_bytes
        if sent >= size_bytes or flow_id not in self._active_local:
            return
        probe = self._probe
        rate = self.control.rate_for(flow_id, self.node)
        if probe is not None:
            probe.pacing(flow_id, rate <= 0)
        if rate <= 0:
            self._stalled.add(flow_id)
            return
        loop = self.loop
        now = loop.now
        payload = min(self._mtu, size_bytes - sent)
        if flow.app_rate_bps is not None:  # a network-limited flow has every byte
            available = flow.produced_bytes(now) - sent
            if available < payload:
                # Host-limited: the application has not produced enough
                # bytes yet; resume when it has.
                delay = max(1, int((payload - available) * 8 * 1e9 / flow.app_rate_bps))
                if probe is not None:
                    probe.host_wait(flow_id, delay)
                loop.schedule(delay, self._emit, flow)
                return
        size = DATA_HEADER_SIZE + payload
        protocol = self._protocol(flow.protocol)
        path = protocol.sample_path(flow.src, flow.dst, self._rng, flow_id)
        packet = SimPacket(  # positional: built once per data packet
            KIND_DATA, flow_id, flow.src, flow.dst, flow.next_seq, size,
            tuple(path), 0, payload, now,
        )
        flow.next_seq += 1
        flow.bytes_sent = sent = sent + payload
        if probe is not None:
            probe.inject(flow, packet)
        self.network.inject(self.node, packet)

        if sent >= size_bytes:
            flow.sender_done_ns = now
            self._active_local.discard(flow_id)
            self._estimators.pop(flow_id, None)
            self.control.on_flow_finished(flow_id, self.node)
            self._broadcast(flow, EVENT_FLOW_FINISH, flow_id)
        else:
            # Token-bucket pacing: the next packet may start once this one's
            # bits have been paid for at the allocated rate.
            delay = max(1, int(size * 8 * 1e9 / rate))
            loop.schedule(delay, self._emit, flow)

    def reannounce_ongoing(self) -> int:
        """§3.2 failure recovery: re-broadcast every ongoing local flow.

        Topology discovery reporting a failed link/node triggers this on
        every node so that flow tables rebuilt after the event reconverge.
        Returns the number of flows re-announced.
        """
        count = 0
        for flow_id in sorted(self._active_local):
            flow = self._flows.get(flow_id)
            if flow is None or flow.sender_done:
                continue
            spec = FlowSpec(
                flow_id=flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                protocol=flow.protocol,
                weight=flow.weight,
                priority=flow.priority,
                start_time_ns=flow.start_ns,
                tenant=flow.tenant,
            )
            self.control.on_flow_reannounced(spec, self.node)
            self._broadcast(flow, EVENT_FLOW_START, spec)
            count += 1
        if self._probe is not None:
            self._probe.reannounce_round(self.node, count)
        return count

    def on_epoch(self) -> None:
        """Epoch duties: wake stalled flows, refresh demand estimates."""
        stalled = list(self._stalled)
        self._stalled.clear()
        for flow_id in stalled:
            flow = self._flows.get(flow_id)
            if flow is not None and not flow.sender_done:
                self._emit(flow)
        # Demand estimation for host-limited flows (eq. 1): backlog is the
        # bytes the app produced that the flow has not yet sent.
        for flow_id, estimator in list(self._estimators.items()):
            flow = self._flows.get(flow_id)
            if flow is None or flow.sender_done:
                continue
            allocated = self.control.rate_for(flow_id, self.node)
            backlog = max(0, flow.produced_bytes(self.loop.now) - flow.bytes_sent)
            estimator.observe(allocated, backlog)
            if estimator.should_broadcast(allocated):
                demand = estimator.mark_broadcast()
                self.control.on_demand_update(flow_id, demand, self.node)
                self._broadcast(flow, EVENT_DEMAND_UPDATE, (flow_id, demand))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliver(self, packet: SimPacket) -> None:
        if packet.kind == KIND_BROADCAST:
            # Count wire traffic only: the copy the source hands to its own
            # control plane never crossed a link.
            if packet.src != self.node:
                if self._metrics is not None:
                    self._metrics.broadcast_bytes += packet.size_bytes
                    self._metrics.broadcast_packets += 1
                if self._probe is not None:
                    self._probe.bcast_receipt(packet.size_bytes)
            # Shared mode: no-op (the sender already applied the event);
            # per-node mode: this delivery is when the node's table learns.
            self.control.apply_broadcast(self.node, packet.src, packet.payload)
            return
        if packet.kind == KIND_DROP_NOTE:
            self.on_broadcast_dropped(packet.src, packet.seq)
            return
        if packet.kind != KIND_DATA:
            raise SimulationError(f"unexpected packet kind {packet.kind}")
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise SimulationError(f"packet for unknown flow {packet.flow_id}")
        if self._metrics is not None:
            self._metrics.packet_latency.record(self.loop.now - packet.sent_ns)
        if self._probe is not None:
            self._probe.packet_span(packet)
        flow.record_in_order(packet.seq)
        flow.bytes_received += packet.payload
        self._received(flow, packet, flow.bytes_received >= flow.size_bytes)
