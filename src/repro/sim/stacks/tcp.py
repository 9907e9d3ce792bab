"""TCP baseline over single-path ECMP routing (paper §5.2).

The paper compares R2C2 against "TCP [with] an ECMP-like routing protocol,
which selects a single path between source and destination, based on the
hash of the flow ID".  This is a NewReno-flavoured implementation: slow
start, congestion avoidance, triple-duplicate-ACK fast retransmit, and
retransmission timeouts with exponential backoff.  ACKs are real 40-byte
packets on the reverse path, and drop-tail queues (finite, unlike R2C2's
measured-unbounded queues) provide the loss signal.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from ...errors import SimulationError
from ...routing.ecmp import EcmpSinglePath
from ...types import NodeId
from ..engine import EventLoop
from ..flows import SimFlow
from ..network import RackNetwork
from ..packets import ACK_SIZE_BYTES, KIND_ACK, KIND_DATA, SimPacket, data_packet_size
from .base import HostStack

#: Default drop-tail queue limit for TCP runs, bytes (≈100 MTU packets).
DEFAULT_TCP_QUEUE_LIMIT = 150_000

#: Lower bound on the retransmission timer; rack RTTs are microseconds, so
#: a datacenter-tuned minimum is used rather than the WAN-era 200 ms.
MIN_RTO_NS = 100_000


class _TcpSender:
    """Congestion-control state for one flow at its source."""

    __slots__ = (
        "flow",
        "path",
        "ack_path",
        "n_segments",
        "seg_payload",
        "cwnd",
        "ssthresh",
        "cum_acked",
        "next_to_send",
        "dup_acks",
        "srtt_ns",
        "rttvar_ns",
        "rto_ns",
        "timer_epoch",
        "in_flight",
        "send_times",
        "recovery_until",
        "done",
    )

    def __init__(self, flow: SimFlow, path: List[NodeId], seg_payload: int) -> None:
        self.flow = flow
        self.path = tuple(path)
        self.ack_path = tuple(reversed(path))
        self.seg_payload = seg_payload
        self.n_segments = max(1, -(-flow.size_bytes // seg_payload))
        self.cwnd = 2.0
        self.ssthresh = 64.0
        self.cum_acked = 0
        self.next_to_send = 0
        self.dup_acks = 0
        self.srtt_ns: Optional[float] = None
        self.rttvar_ns = 0.0
        self.rto_ns = 10 * MIN_RTO_NS
        self.timer_epoch = 0
        self.in_flight = 0
        self.send_times: Dict[int, int] = {}
        self.recovery_until = -1
        self.done = False

    def segment_payload(self, seg: int) -> int:
        if seg == self.n_segments - 1:
            last = self.flow.size_bytes - (self.n_segments - 1) * self.seg_payload
            return last if last > 0 else self.seg_payload
        return self.seg_payload


class TcpStack(HostStack):
    """Per-node TCP endpoints (all flows sourced or sunk at this node)."""

    def __init__(
        self,
        node: NodeId,
        loop: EventLoop,
        network: RackNetwork,
        flows_by_id: Dict[int, SimFlow],
        ecmp: EcmpSinglePath,
        mtu_payload: int = 1500,
        metrics=None,
        probe=None,
    ) -> None:
        # TCP has no explicit pacing timers, so for causal tracing all
        # sender-side residence lands in the pacing remainder (ACK-clocked
        # sending); only injection and delivery are probe sites.
        super().__init__(node, loop, network, probe)
        self._flows = flows_by_id
        self._ecmp = ecmp
        self._mtu = mtu_payload
        self._metrics = metrics
        self._senders: Dict[int, _TcpSender] = {}
        self._recv_segments: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------
    def start_flow(self, flow: SimFlow) -> None:
        if flow.src != self.node:
            raise SimulationError(f"flow {flow.flow_id} not sourced here")
        path = self._ecmp.flow_path(flow.src, flow.dst, flow.flow_id)
        sender = _TcpSender(flow, path, self._mtu)
        self._senders[flow.flow_id] = sender
        self._try_send(sender)
        self._arm_timer(sender)

    def _try_send(self, sender: _TcpSender) -> None:
        while (
            not sender.done
            and sender.next_to_send < sender.n_segments
            and sender.in_flight < int(sender.cwnd)
        ):
            self._send_segment(sender, sender.next_to_send)
            sender.next_to_send += 1

    def _send_segment(self, sender: _TcpSender, seg: int) -> None:
        payload = sender.segment_payload(seg)
        packet = SimPacket(
            kind=KIND_DATA,
            flow_id=sender.flow.flow_id,
            src=sender.flow.src,
            dst=sender.flow.dst,
            seq=seg,
            size_bytes=data_packet_size(payload),
            path=sender.path,
            payload=payload,
            sent_ns=self.loop.now,
        )
        sender.in_flight += 1
        # bytes_sent counts useful payload only, like the reliable R2C2
        # transport: a segment contributes on its first transmission, never
        # on retransmits (wire-level totals live in the port counters).
        if seg not in sender.send_times:
            sender.flow.bytes_sent += payload
        sender.send_times[seg] = self.loop.now
        if self._probe is not None:
            self._probe.inject(sender.flow, packet)
        self.network.inject(self.node, packet)

    def _arm_timer(self, sender: _TcpSender) -> None:
        sender.timer_epoch += 1
        self.loop.schedule(
            int(sender.rto_ns), self._on_rto, sender, sender.timer_epoch
        )

    def _on_rto(self, sender: _TcpSender, epoch: int) -> None:
        if sender.done or epoch != sender.timer_epoch:
            return
        if sender.cum_acked >= sender.n_segments:
            return
        # Timeout: collapse the window and go back to the first unacked
        # segment.
        if self._probe is not None:
            self._probe.tcp_rto(sender.flow.flow_id, sender.cum_acked)
        sender.ssthresh = max(sender.cwnd / 2.0, 2.0)
        sender.cwnd = 2.0
        sender.dup_acks = 0
        sender.rto_ns = min(sender.rto_ns * 2, 100 * MIN_RTO_NS * 2 ** 6)
        sender.next_to_send = sender.cum_acked
        sender.in_flight = 0
        self._try_send(sender)
        self._arm_timer(sender)

    def _on_ack(self, sender: _TcpSender, ack: int) -> None:
        if sender.done:
            return
        if ack > sender.cum_acked:
            newly = ack - sender.cum_acked
            sender.cum_acked = ack
            # Never (re)send below the cumulative ACK point: an ACK that
            # overtakes an RTO-rewound next_to_send would otherwise make
            # _try_send retransmit segments the receiver already has.
            sender.next_to_send = max(sender.next_to_send, ack)
            sender.in_flight = max(0, sender.in_flight - newly)
            sender.dup_acks = 0
            # RTT sample from the newest acked segment (Karn-ish: only if we
            # recorded a single send time for it).
            sent = sender.send_times.pop(ack - 1, None)
            if sent is not None:
                self._update_rtt(sender, self.loop.now - sent)
            if sender.cwnd < sender.ssthresh:
                sender.cwnd += newly  # slow start
            else:
                sender.cwnd += newly / sender.cwnd  # congestion avoidance
            if ack >= sender.n_segments:
                sender.done = True
                sender.timer_epoch += 1
                return
            self._arm_timer(sender)
            self._try_send(sender)
        else:
            sender.dup_acks += 1
            if sender.dup_acks == 3 and sender.cum_acked > sender.recovery_until:
                # Fast retransmit of the missing segment.
                sender.ssthresh = max(sender.cwnd / 2.0, 2.0)
                sender.cwnd = sender.ssthresh
                sender.recovery_until = sender.next_to_send
                sender.in_flight = max(0, sender.in_flight - 1)
                self._send_segment(sender, sender.cum_acked)
                self._arm_timer(sender)

    def _update_rtt(self, sender: _TcpSender, sample_ns: int) -> None:
        if sender.srtt_ns is None:
            sender.srtt_ns = float(sample_ns)
            sender.rttvar_ns = sample_ns / 2.0
        else:
            err = sample_ns - sender.srtt_ns
            sender.srtt_ns += 0.125 * err
            sender.rttvar_ns += 0.25 * (abs(err) - sender.rttvar_ns)
        sender.rto_ns = max(
            MIN_RTO_NS, sender.srtt_ns + 4.0 * sender.rttvar_ns
        )

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def deliver(self, packet: SimPacket) -> None:
        if packet.kind == KIND_ACK:
            sender = self._senders.get(packet.flow_id)
            if sender is not None:
                self._on_ack(sender, packet.seq)
            return
        if packet.kind != KIND_DATA:
            raise SimulationError(f"unexpected packet kind {packet.kind}")
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise SimulationError(f"packet for unknown flow {packet.flow_id}")
        if self._metrics is not None:
            self._metrics.packet_latency.record(self.loop.now - packet.sent_ns)
        segments = self._recv_segments.setdefault(packet.flow_id, set())
        if packet.seq not in segments:
            segments.add(packet.seq)
            flow.bytes_received += packet.payload
            flow.record_in_order(packet.seq)
        self._received(flow, packet, flow.bytes_received >= flow.size_bytes)
        # Cumulative ACK: number of in-order segments received.
        ack_no = flow.expected_seq
        ack = SimPacket(
            kind=KIND_ACK,
            flow_id=packet.flow_id,
            src=self.node,
            dst=packet.src,
            seq=ack_no,
            size_bytes=ACK_SIZE_BYTES,
            path=tuple(reversed(packet.path)),
            sent_ns=self.loop.now,
        )
        if self._metrics is not None:
            self._metrics.ack_bytes += ACK_SIZE_BYTES
        self.network.inject(self.node, ack)
