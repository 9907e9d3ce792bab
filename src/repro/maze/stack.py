"""R2C2 as a user-space network stack on the Maze platform (paper §4.2).

This is the same control plane as everywhere else (one
:class:`~repro.congestion.controller.RateController`), but the data plane is
the byte-level Maze machinery: flows are paced by
:class:`~repro.maze.ratelimit.TokenBucket` limiters, packets are *really
encoded* with :class:`~repro.wire.packets.DataPacket` (and checksum-verified
at the receiver), paths are sampled per packet by the flow's routing
protocol, and flow events travel as encoded 16-byte broadcast packets along
the broadcast trees.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..broadcast.fib import BroadcastFib
from ..congestion.controller import RateController
from ..congestion.flowstate import FlowSpec
from ..errors import EmulationError
from ..routing.base import protocol_class
from ..sim.flows import SimFlow
from ..types import NodeId
from ..wire.packets import (
    EVENT_FLOW_FINISH,
    EVENT_FLOW_START,
    TYPE_BROADCAST,
    TYPE_DATA,
    BroadcastPacket,
    DataPacket,
)
from .ratelimit import TokenBucket
from .server import MazeServer


class MazeR2C2Stack:
    """One node's R2C2 endpoint on the emulation platform."""

    def __init__(
        self,
        node: NodeId,
        server: MazeServer,
        controller: RateController,
        fib: BroadcastFib,
        flows_by_id: Dict[int, SimFlow],
        mtu_payload: int = 8192,
        seed: int = 0,
        metrics=None,
    ) -> None:
        self.node = node
        self._server = server
        self._controller = controller
        self._fib = fib
        self._flows = flows_by_id
        self._mtu = mtu_payload
        self._rng = random.Random((seed << 16) ^ node ^ 0xA5A5)
        self._metrics = metrics
        self._buckets: Dict[int, TokenBucket] = {}
        self._local_flows: List[SimFlow] = []
        self._next_tree = node
        self._bcast_seq = 0
        #: set by the runner before each step so deliveries are timestamped.
        self._now_ns_hint = 0
        server.on_local_delivery = self._on_delivery

    # ------------------------------------------------------------------
    # Flow lifecycle (sender side)
    # ------------------------------------------------------------------
    def start_flow(self, flow: SimFlow, now_ns: int) -> None:
        if flow.src != self.node:
            raise EmulationError(f"flow {flow.flow_id} not sourced at {self.node}")
        spec = FlowSpec(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            protocol=flow.protocol,
            weight=flow.weight,
            priority=flow.priority,
            start_time_ns=now_ns,
            tenant=flow.tenant,
        )
        self._controller.on_flow_started(spec, now_ns)
        rate = self._controller.rate_for(flow.flow_id)
        packet_size = 35 + self._mtu
        self._buckets[flow.flow_id] = TokenBucket(
            rate_bps=max(rate, 1.0), burst_bytes=packet_size, now_ns=now_ns
        )
        self._local_flows.append(flow)
        self._broadcast(flow, EVENT_FLOW_START, now_ns)

    def _broadcast(self, flow: SimFlow, event: int, now_ns: int) -> None:
        tree_id = self._next_tree % self._fib.n_trees
        self._next_tree += 1
        protocol_id = protocol_class(flow.protocol).protocol_id
        packet = BroadcastPacket(
            event=event,
            src=flow.src,
            dst=flow.dst,
            flow_id=flow.flow_id,
            weight=flow.weight,
            priority=flow.priority,
            tree_id=tree_id,
            protocol_id=protocol_id,
        )
        children = list(self._fib.next_hops(self.node, self.node, tree_id))
        if children:
            self._server.app_send(packet.encode(), children)

    def refresh_rates(self, now_ns: int) -> None:
        """Pull new allocations into the token buckets (epoch hook)."""
        for flow in self._local_flows:
            if flow.sender_done:
                continue
            bucket = self._buckets.get(flow.flow_id)
            if bucket is not None:
                rate = self._controller.rate_for(flow.flow_id)
                bucket.set_rate(max(rate, 1.0), now_ns)

    def pump(self, now_ns: int) -> None:
        """Emit as many packets as tokens and ring space allow (per step)."""
        finished: List[SimFlow] = []
        for flow in self._local_flows:
            if flow.sender_done:
                continue
            bucket = self._buckets[flow.flow_id]
            provider = self._controller.provider
            protocol = provider.protocol(flow.protocol)
            while not flow.sender_done:
                payload_len = min(self._mtu, flow.remaining_bytes)
                size = 35 + payload_len
                if bucket.tokens(now_ns) < size:
                    break
                path = protocol.sample_path(
                    flow.src, flow.dst, self._rng, flow.flow_id
                )
                # route_index starts at 1: handing the packet to the first
                # hop's output ring *is* taking hop 0, so the next node must
                # consult the route at index 1.
                packet = DataPacket(
                    flow_id=flow.flow_id,
                    src=flow.src,
                    dst=flow.dst,
                    seq=flow.next_seq,
                    route_ports=tuple(
                        self._topology().port_of(path[i], path[i + 1])
                        for i in range(len(path) - 1)
                    ),
                    route_index=1,
                    payload=bytes(payload_len),
                )
                if not self._server.app_send(packet.encode(), [path[1]]):
                    break  # first-hop ring full; retry next step
                bucket.try_consume(size, now_ns)
                flow.next_seq += 1
                flow.bytes_sent += payload_len
            if flow.sender_done and flow.sender_done_ns is None:
                flow.sender_done_ns = now_ns
                finished.append(flow)
        for flow in finished:
            self._controller.on_flow_finished(flow.flow_id, now_ns)
            self._broadcast(flow, EVENT_FLOW_FINISH, now_ns)
            self._buckets.pop(flow.flow_id, None)
        if finished:
            self._local_flows = [f for f in self._local_flows if not f.sender_done]

    def _topology(self):
        return self._server._topology  # noqa: SLF001 - same package

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_delivery(self, data: bytes) -> None:
        ptype = data[0] >> 4
        if ptype == TYPE_BROADCAST:
            if self._metrics is not None:
                self._metrics.broadcast_bytes += len(data)
                self._metrics.broadcast_packets += 1
            return
        if ptype != TYPE_DATA:
            raise EmulationError(f"unexpected packet type {ptype}")
        packet = DataPacket.decode(data)
        if packet.dst != self.node:
            raise EmulationError(
                f"misrouted packet: flow {packet.flow_id} for node {packet.dst} "
                f"delivered at node {self.node}"
            )
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise EmulationError(f"packet for unknown flow {packet.flow_id}")
        flow.record_in_order(packet.seq)
        flow.bytes_received += len(packet.payload)
        if flow.bytes_received >= flow.size_bytes and flow.completed_ns is None:
            flow.completed_ns = self._now_ns_hint

    def set_time_hint(self, now_ns: int) -> None:
        """Runner-provided timestamp for deliveries within the next step."""
        self._now_ns_hint = now_ns
