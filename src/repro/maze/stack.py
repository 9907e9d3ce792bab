"""R2C2 as a user-space network stack on the Maze platform (paper §4.2).

The control plane is the one :class:`~repro.core.node.R2C2Node`: it builds
each flow's announcement, picks its tree and encodes the 16-byte broadcast,
and the sender allocates from the spec those bytes decode to.  Maze's nodes
share one controller, so a receiver counts a broadcast's bytes and applies
nothing.  The data plane is byte-level: :class:`~repro.maze.ratelimit.TokenBucket`
pacing, :class:`~repro.wire.packets.DataPacket` encoding (checksum-verified
at the receiver) and per-packet path sampling by the flow's protocol.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..broadcast.fib import BroadcastFib
from ..congestion.controller import RateController
from ..core.node import R2C2Node
from ..errors import EmulationError
from ..sim.flows import SimFlow
from ..types import NodeId
from ..wire.packets import TYPE_BROADCAST, TYPE_DATA, DataPacket
from .platform import MazePlatform
from .ratelimit import TokenBucket


class MazeR2C2Stack:
    """One node's R2C2 endpoint on the emulation platform."""

    def __init__(
        self,
        node: NodeId,
        platform: MazePlatform,
        controller: RateController,
        fib: BroadcastFib,
        flows_by_id: Dict[int, SimFlow],
        mtu_payload: int = 8192,
        seed: int = 0,
        metrics=None,
    ) -> None:
        self.node = node
        self._server = platform.server(node)
        self._topology = platform.topology
        self._controller = controller
        #: this node's R2C2 node: builds, encodes and applies its announcements.
        self.r2c2 = R2C2Node(self._topology, fib, controller, node, learns=False)
        self._flows = flows_by_id
        self._mtu = mtu_payload
        self._rng = random.Random((seed << 16) ^ node ^ 0xA5A5)
        self._metrics = metrics
        self._buckets: Dict[int, TokenBucket] = {}
        self._local_flows: List[SimFlow] = []
        #: set by the runner before each step so deliveries are timestamped.
        self._now_ns_hint = 0
        self._server.on_local_delivery = self._on_delivery

    # ------------------------------------------------------------------
    # Flow lifecycle (sender side)
    # ------------------------------------------------------------------
    def start_flow(self, flow: SimFlow, now_ns: int) -> None:
        if flow.src != self.node:
            raise EmulationError(f"flow {flow.flow_id} not sourced at {self.node}")
        data = self.r2c2.start_flow(
            flow.flow_id, flow.dst, flow.protocol, flow.weight, flow.priority,
            now_ns, flow.tenant,
        )
        rate = self._controller.rate_for(flow.flow_id)
        packet_size = 35 + self._mtu
        self._buckets[flow.flow_id] = TokenBucket(
            rate_bps=max(rate, 1.0), burst_bytes=packet_size, now_ns=now_ns
        )
        self._local_flows.append(flow)
        self._server.app_broadcast(data)

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
                        self._topology.port_of(path[i], path[i + 1])
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
            self._server.app_broadcast(self.r2c2.finish_flow(flow.flow_id, now_ns))
            self._buckets.pop(flow.flow_id, None)
        if finished:
            self._local_flows = [f for f in self._local_flows if not f.sender_done]

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
