"""The idealized per-flow-queue (PFQ) baseline (paper §5.2).

"An idealized baseline, per-flow queues (PFQ), that uses back-pressure and
per-flow queues at each node ... impractical because, apart from forwarding
complexity at rack nodes, it results in very high buffering requirements.
However ... it provides the upper bound of the performance achievable by any
rate control protocol."

Implementation: every output port runs a per-flow round-robin scheduler;
when any port's queue for a flow exceeds a high-water mark the flow's
*source* is paused (idealized instantaneous back-pressure — control signals
are free, as befits an upper bound), and resumed when the queue drains below
the low-water mark.  Sources inject at line rate while unpaused, spraying
packets over minimal paths like R2C2 does.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Set

from ...errors import SimulationError
from ...routing.base import RoutingProtocol
from ...types import NodeId
from ..engine import EventLoop
from ..flows import SimFlow
from ..network import PerFlowRoundRobin, RackNetwork
from ..packets import KIND_DATA, SimPacket, data_packet_size
from .base import HostStack


class BackpressureQueue(PerFlowRoundRobin):
    """Per-flow round-robin queue that reports high/low water crossings."""

    def __init__(
        self,
        coordinator: "PfqCoordinator",
        high_bytes: int,
        low_bytes: int,
    ) -> None:
        super().__init__(limit_bytes_per_flow=None)
        self._coordinator = coordinator
        self._high = high_bytes
        self._low = low_bytes
        self._congested: Set[int] = set()

    def enqueue(self, packet: SimPacket) -> bool:
        ok = super().enqueue(packet)
        if ok:
            flow = packet.flow_id
            if (
                flow not in self._congested
                and self.flow_occupancy_bytes(flow) > self._high
            ):
                self._congested.add(flow)
                self._coordinator.queue_congested(flow)
        return ok

    def dequeue(self) -> Optional[SimPacket]:
        packet = super().dequeue()
        if packet is not None:
            flow = packet.flow_id
            if (
                flow in self._congested
                and self.flow_occupancy_bytes(flow) <= self._low
            ):
                self._congested.discard(flow)
                self._coordinator.queue_drained(flow)
        return packet


class PfqCoordinator:
    """Tracks, per flow, how many queues currently exert back-pressure."""

    def __init__(self) -> None:
        self._congested_count: Dict[int, int] = {}
        self._pause: Dict[int, Callable[[], None]] = {}
        self._resume: Dict[int, Callable[[], None]] = {}

    def register_flow(
        self, flow_id: int, pause: Callable[[], None], resume: Callable[[], None]
    ) -> None:
        """The source stack registers its pause/resume handlers."""
        self._pause[flow_id] = pause
        self._resume[flow_id] = resume
        # Back-pressure may already exist if registration races enqueue
        # (it cannot in practice: the source sends the first packet).
        if self._congested_count.get(flow_id, 0) > 0:
            pause()

    def unregister_flow(self, flow_id: int) -> None:
        """Forget a finished flow's handlers.

        The congestion counts are kept: the flow's packets are still
        draining through queues whose high-water crossings were already
        counted, and those queues will report the matching drain events.
        """
        self._pause.pop(flow_id, None)
        self._resume.pop(flow_id, None)

    def queue_congested(self, flow_id: int) -> None:
        count = self._congested_count.get(flow_id, 0) + 1
        self._congested_count[flow_id] = count
        if count == 1:
            pause = self._pause.get(flow_id)
            if pause is not None:
                pause()

    def queue_drained(self, flow_id: int) -> None:
        count = self._congested_count.get(flow_id, 0) - 1
        if count < 0:
            raise SimulationError(f"flow {flow_id} drained more queues than congested")
        self._congested_count[flow_id] = count
        if count == 0:
            resume = self._resume.get(flow_id)
            if resume is not None:
                resume()


class PfqStack(HostStack):
    """Source pacing at line rate, gated by global back-pressure."""

    def __init__(
        self,
        node: NodeId,
        loop: EventLoop,
        network: RackNetwork,
        coordinator: PfqCoordinator,
        flows_by_id: Dict[int, SimFlow],
        protocol: RoutingProtocol,
        mtu_payload: int = 1500,
        seed: int = 0,
        metrics=None,
        probe=None,
    ) -> None:
        super().__init__(node, loop, network, probe)
        self._coordinator = coordinator
        self._flows = flows_by_id
        self._protocol = protocol
        self._mtu = mtu_payload
        self._metrics = metrics
        self._rng = random.Random((seed << 16) ^ node ^ 0x5F5F)
        self._paused: Set[int] = set()
        self._emitting: Set[int] = set()

    def start_flow(self, flow: SimFlow) -> None:
        if flow.src != self.node:
            raise SimulationError(f"flow {flow.flow_id} not sourced here")
        self._coordinator.register_flow(
            flow.flow_id,
            pause=lambda fid=flow.flow_id: self._paused.add(fid),
            resume=lambda fid=flow.flow_id: self._on_resume(fid),
        )
        self._emit(flow)

    def _on_resume(self, flow_id: int) -> None:
        self._paused.discard(flow_id)
        flow = self._flows.get(flow_id)
        if flow is not None and not flow.sender_done and flow_id not in self._emitting:
            self._emit(flow)

    def _emit(self, flow: SimFlow) -> None:
        self._emitting.discard(flow.flow_id)
        if flow.sender_done:
            return
        if flow.flow_id in self._paused:
            return  # resumed later by the coordinator
        payload = min(self._mtu, flow.remaining_bytes)
        size = data_packet_size(payload)
        path = self._protocol.sample_path(flow.src, flow.dst, self._rng, flow.flow_id)
        packet = SimPacket(
            kind=KIND_DATA,
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            seq=flow.next_seq,
            size_bytes=size,
            path=tuple(path),
            payload=payload,
            sent_ns=self.loop.now,
        )
        flow.next_seq += 1
        flow.bytes_sent += payload
        self.network.inject(self.node, packet)
        if flow.sender_done:
            flow.sender_done_ns = self.loop.now
            self._coordinator.unregister_flow(flow.flow_id)
            return
        # Pace at the node's aggregate outgoing capacity: the idealized
        # upper-bound baseline must be able to use every path a multi-path
        # flow spreads over (back-pressure, not the source, is what
        # throttles it).
        topology = self.network.topology
        capacity = topology.capacity_bps * max(1, topology.degree(flow.src))
        delay = max(1, int(size * 8 * 1e9 / capacity))
        self._emitting.add(flow.flow_id)
        self.loop.schedule(delay, self._emit, flow)

    def deliver(self, packet: SimPacket) -> None:
        if packet.kind != KIND_DATA:
            raise SimulationError(f"unexpected packet kind {packet.kind}")
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise SimulationError(f"packet for unknown flow {packet.flow_id}")
        if self._metrics is not None:
            self._metrics.packet_latency.record(self.loop.now - packet.sent_ns)
        flow.record_in_order(packet.seq)
        flow.bytes_received += packet.payload
        self._received(flow, packet, flow.bytes_received >= flow.size_bytes)
