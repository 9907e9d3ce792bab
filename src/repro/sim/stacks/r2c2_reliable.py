"""R2C2 with the §6 end-to-end reliability transport.

Same control plane and token-bucket pacing as :class:`R2C2Stack`, but
payload is carried in numbered segments tracked by
:class:`~repro.transport.reliability.ReliableSender` /
:class:`~repro.transport.reliability.ReliableReceiver`: receivers return
40-byte cumulative+selective ACKs along the reverse path, lost segments are
retransmitted after a fixed timeout, and a flow only finishes (and releases
its allocation) once every byte is acknowledged.

The deliberate contrast with the TCP stack: ACKs never influence the
sending *rate* — that remains the congestion controller's output — so loss
recovery and congestion control stay decoupled, exactly the simplification
the paper claims R2C2 enables.
"""

from __future__ import annotations

from typing import Dict

from ...errors import SimulationError
from ...transport.reliability import AckInfo, ReliableReceiver, ReliableSender
from ...types import NodeId, usec
from ..flows import SimFlow
from ..packets import ACK_SIZE_BYTES, KIND_ACK, KIND_DATA, SimPacket, data_packet_size
from .r2c2 import R2C2Stack

#: Fixed retransmission timeout of the reliability transport.
_RTO_NS = usec(150)


class R2C2ReliableStack(R2C2Stack):
    """R2C2 data plane plus acknowledgement-based reliability."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._senders: Dict[int, ReliableSender] = {}
        self._receivers: Dict[int, ReliableReceiver] = {}
        self.retransmitted_bytes = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def start_flow(self, flow: SimFlow) -> None:
        n_segments = max(1, -(-flow.size_bytes // self._mtu))
        self._senders[flow.flow_id] = ReliableSender(n_segments, _RTO_NS)
        flow.total_segments = n_segments
        super().start_flow(flow)

    def _segment_payload(self, flow: SimFlow, seq: int) -> int:
        sender = self._senders[flow.flow_id]
        if seq == sender.n_segments - 1:
            last = flow.size_bytes - (sender.n_segments - 1) * self._mtu
            return last if last > 0 else self._mtu
        return self._mtu

    def _emit(self, flow: SimFlow) -> None:
        if flow.flow_id not in self._active_local:
            return
        sender = self._senders[flow.flow_id]
        if sender.all_acked:
            return
        probe = self._probe
        rate = self._controller.rate_for(flow.flow_id)
        if probe is not None:
            probe.pacing(flow.flow_id, rate <= 0)
        if rate <= 0:
            self._stalled.add(flow.flow_id)
            return

        seq = sender.next_segment(self.loop.now)
        if seq is None:
            # Everything outstanding is within its RTO: wake when the
            # earliest segment becomes eligible for retransmission.
            wake = sender.next_timeout_ns(self.loop.now)
            if wake is not None:
                delay = max(1, wake - self.loop.now)
                if probe is not None:
                    probe.rto_wait(flow.flow_id, delay)
                self.loop.schedule(delay, self._emit, flow)
            return

        payload = self._segment_payload(flow, seq)
        first_transmission = seq >= flow.next_seq
        size = data_packet_size(payload)
        protocol = self._protocol(flow.protocol)
        path = protocol.sample_path(flow.src, flow.dst, self._rng, flow.flow_id)
        packet = SimPacket(
            kind=KIND_DATA,
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            seq=seq,
            size_bytes=size,
            path=tuple(path),
            payload=payload,
            sent_ns=self.loop.now,
        )
        sender.on_sent(seq, self.loop.now)
        if first_transmission:
            flow.next_seq = max(flow.next_seq, seq + 1)
            flow.bytes_sent += payload
        else:
            self.retransmitted_bytes += payload
        if probe is not None:
            probe.inject(flow, packet)
        self.network.inject(flow.src, packet)

        # Retransmissions pay the same token cost: pacing applies to bytes
        # on the wire, not to "useful" bytes.
        delay = max(1, int(size * 8 * 1e9 / rate))
        self.loop.schedule(delay, self._emit, flow)

    def _finish_if_done(self, flow: SimFlow) -> None:
        sender = self._senders.get(flow.flow_id)
        if sender is None or not sender.all_acked:
            return
        if flow.flow_id in self._active_local:
            flow.sender_done_ns = self.loop.now
            self._active_local.discard(flow.flow_id)
            self._estimators.pop(flow.flow_id, None)
            self._announce(flow, self.r2c2.finish(flow.flow_id, self.loop.now))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliver(self, packet: SimPacket) -> None:
        if packet.kind == KIND_ACK:
            self._on_ack(packet)
            return
        if packet.kind != KIND_DATA:
            # Only data and ACKs differ here: broadcasts, §3.2 drop notes
            # and the unknown-kind error are the base stack's.
            super().deliver(packet)
            return
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise SimulationError(f"packet for unknown flow {packet.flow_id}")
        if self._metrics is not None:
            self._metrics.packet_latency.record(self.loop.now - packet.sent_ns)
        if self._probe is not None:
            self._probe.packet_span(packet)
        receiver = self._receivers.get(packet.flow_id)
        if receiver is None:
            # The sender writes flow.total_segments at start_flow, but in a
            # sharded run it may live in another shard; both sides derive
            # the same count from the flow size and the configured MTU.
            n_segments = (
                flow.total_segments
                if flow.total_segments is not None
                else max(1, -(-flow.size_bytes // self._mtu))
            )
            receiver = ReliableReceiver(n_segments)
            self._receivers[packet.flow_id] = receiver
        if receiver.on_segment(packet.seq):
            flow.record_in_order(packet.seq)
            flow.bytes_received += packet.payload
        self._received(flow, packet, receiver.complete)
        ack_info = receiver.ack_info()
        ack = SimPacket(
            kind=KIND_ACK,
            flow_id=packet.flow_id,
            src=self.node,
            dst=packet.src,
            seq=ack_info.cumulative,
            size_bytes=ACK_SIZE_BYTES,
            path=tuple(reversed(packet.path)),
            payload=ack_info,
            sent_ns=self.loop.now,
        )
        if self._metrics is not None:
            self._metrics.ack_bytes += ACK_SIZE_BYTES
        self.network.inject(self.node, ack)

    def _on_ack(self, packet: SimPacket) -> None:
        sender = self._senders.get(packet.flow_id)
        if sender is None:
            return
        ack_info = packet.payload
        if not isinstance(ack_info, AckInfo):
            raise SimulationError("ACK packet without AckInfo payload")
        sender.on_ack(ack_info)
        flow = self._flows.get(packet.flow_id)
        if flow is not None:
            self._finish_if_done(flow)
