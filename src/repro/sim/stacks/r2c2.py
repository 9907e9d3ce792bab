"""The R2C2 host stack inside the packet simulator (paper §3, §4.2).

Each node's :class:`~repro.core.node.R2C2Node` announces flow events,
picks their broadcast trees, keeps the replay buffer and applies what it
learns; this module only moves its announcements and paces the data plane.

Sender side: per-flow token-bucket pacing at the controller-assigned rate,
per-packet path sampling by the flow's routing protocol, source-route
injection, and the node's announcements carried along the broadcast trees
as 16-byte packets (consuming link bandwidth).  They carry the in-memory
spec, not its quantized wire form (DESIGN §3a).

Receiver side: payload accounting, completion detection and reorder-buffer
measurement.

One control-plane class, :class:`PerNodeControlPlane`, builds every node's
:class:`~repro.congestion.controller.RateController` and ``R2C2Node`` and
has two modes:

* shared (``SimConfig(control_plane="shared")``, the default) — every node
  maps to the same controller.  Every node would compute identical
  allocations from identical broadcast-fed tables, so the simulator computes
  them once per epoch instead of once per node per epoch; the table is
  updated the moment a sender *emits* an event.
* per node (``control_plane="per_node"``) — full fidelity: one controller
  per node, learning an event only when a broadcast packet is actually
  *delivered* to that node (the sender applies its own events immediately;
  a learned one reaches the table at the controller's next read).  Identical
  tables still cost one water-fill thanks to a shared allocation memo, so
  this mode is affordable and is used to validate the shared collapsing
  (`tests/integration/`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from ...congestion.controller import ControllerConfig, RateController
from ...core.node import R2C2Node, flow_spec
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
    """The simulator's control plane: each rack node's rate controller and
    ``R2C2Node``.

    Per node (the default here): remote nodes learn about flows only when
    the 16-byte broadcast packets actually reach them through the simulated
    fabric, so visibility skew is modelled exactly.  A delivery appends the
    event to the node's controller journal, which the controller settles at
    its next read (an epoch, a rate, a local flow event) into exactly the
    table eager writes would have built; a flow that starts and finishes
    between two of a node's reads never enters its table.  A shared
    allocation memo keeps the cost near the shared mode's: nodes whose
    tables agree (the overwhelmingly common case) reuse one water-fill
    result.

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
        self._config = config
        # The nodes this plane manages — all of them in a serial run, one
        # shard's subset under repro.distsim.  Ascending order keeps the
        # epoch-tick iteration identical to the serial engine's.
        nodes = list(topology.nodes()) if nodes is None else sorted(nodes)
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
            for node in (nodes[:1] if shared else nodes)
        ]
        #: each node's R2C2 node (shared: one controller, so they learn
        #: nothing — the sender's call already updated the one table).
        self.nodes: Dict[NodeId, R2C2Node] = {
            node: R2C2Node(
                topology, network.fib, self.controllers[0 if shared else i], node,
                learns=not shared,
            )
            for i, node in enumerate(nodes)
        }
        self._stacks: List["R2C2Stack"] = []
        self._epoch_scheduled = False
        #: the run's observation surface (repro.sim.probe): every
        #: recomputed allocation is reported to it.
        self._probe = probe

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
    """One node's R2C2 data plane, moving its ``R2C2Node``'s announcements."""

    def __init__(
        self,
        node: NodeId,
        loop: EventLoop,
        network: RackNetwork,
        control: PerNodeControlPlane,
        flows_by_id: Dict[int, SimFlow],
        mtu_payload: int = 1500,
        seed: int = 0,
        metrics=None,
        probe=None,
    ) -> None:
        super().__init__(node, loop, network, probe)
        #: this node's R2C2 node: announces, picks trees, replays, learns.
        self.r2c2 = control.nodes[node]
        self._controller = controller = self.r2c2.controller
        #: what a remote broadcast's ``(event, data)`` delivered here goes
        #: to: the controller journal's bound append (None: shared mode,
        #: where it applies nothing).
        self._learn = self.r2c2.learner(lambda: loop.now)
        self._flows = flows_by_id
        self._mtu = mtu_payload
        self._rng = random.Random((seed << 16) ^ node)
        self._metrics = metrics
        self._active_local: Set[int] = set()
        self._stalled: Set[int] = set()
        #: demand estimators for host-limited local flows (§3.3.2).
        self._estimators: Dict[int, object] = {}
        #: the shared provider's name -> routing-protocol lookup, resolved
        #: once: `_emit` asks it per packet.
        self._protocol = controller.provider.protocol
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
        now = self.loop.now
        announcement = self.r2c2.start(flow_spec(flow, now), now)
        if self._probe is not None:
            self._probe.flow_start(flow)
        self._announce(flow, announcement)
        self._active_local.add(flow.flow_id)
        if flow.app_rate_bps is not None:
            from ...congestion.demand import DemandEstimator

            interval = max(self._controller.config.recompute_interval_ns, 1)
            self._estimators[flow.flow_id] = DemandEstimator(period_ns=interval)
        self._emit(flow)

    def _announce(self, flow: SimFlow, announcement) -> None:
        """Put one of this node's announcements on its broadcast tree."""
        seq, tree_id, event, data = announcement
        if self._probe is not None:
            self._probe.bcast_announce(
                _EVENT_NAMES[event], flow.flow_id, self.node, tree_id
            )
        packet = SimPacket(
            KIND_BROADCAST, flow.flow_id, self.node, flow.dst, seq,
            broadcast_packet_size(), tree_id=tree_id, payload=(event, data),
            sent_ns=self.loop.now,
        )
        self.network.inject(self.node, packet)

    def on_broadcast_dropped(self, note: SimPacket) -> None:
        """§3.2: "the node dropping a broadcast packet informs the sender
        who can then re-transmit" — the node re-sends on the next tree."""
        announcement = self.r2c2.resend(note.seq)
        if announcement is None:
            return  # aged out of the replay window
        self.broadcast_retransmissions += 1
        if self._probe is not None:
            self._probe.bcast_retransmit(note.flow_id, note.src, note.seq)
        self._announce(self._flows[note.flow_id], announcement)

    def _emit(self, flow: SimFlow) -> None:
        flow_id = flow.flow_id
        sent = flow.bytes_sent
        size_bytes = flow.size_bytes
        if sent >= size_bytes or flow_id not in self._active_local:
            return
        probe = self._probe
        rate = self._controller.rate_for(flow_id)
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
            self._announce(flow, self.r2c2.finish(flow_id, now))
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
            spec = flow_spec(flow, flow.start_ns)
            self._announce(flow, self.r2c2.reannounce(spec, self.loop.now))
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
            allocated = self._controller.rate_for(flow_id)
            backlog = max(0, flow.produced_bytes(self.loop.now) - flow.bytes_sent)
            estimator.observe(allocated, backlog)
            if estimator.should_broadcast(allocated):
                demand = estimator.mark_broadcast()
                self._announce(flow, self.r2c2.demand(flow_id, demand))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliver(self, packet: SimPacket) -> None:
        if packet.kind == KIND_BROADCAST:
            # The copy the source hands to its own control plane crossed no
            # link, and the source's controller already applied its event.
            if packet.src == self.node:
                return
            if self._metrics is not None:
                self._metrics.broadcast_bytes += packet.size_bytes
                self._metrics.broadcast_packets += 1
            if self._probe is not None:
                self._probe.bcast_receipt(packet.size_bytes)
            # Per-node mode: this delivery is when the node learns; its
            # table applies the event at the controller's next read.
            learn = self._learn
            if learn is not None:
                learn(packet.payload)
            return
        if packet.kind == KIND_DROP_NOTE:
            self.on_broadcast_dropped(packet)
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
