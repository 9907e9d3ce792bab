"""Control-plane messages for the ``repro serve`` daemon.

The rack controller daemon (:mod:`repro.service`) speaks a small binary
protocol over a stream transport.  Framing is a 4-byte big-endian length
prefix followed by the message body; bodies reuse the packet conventions of
:mod:`repro.wire.packets`: the high nibble of byte 0 is the message type,
fixed-width big-endian fields, and a 16-bit RFC 1071 Internet checksum
computed with the checksum field zeroed (store-zeroed convention, verified
by :func:`~repro.wire.checksum.internet_checksum` on decode).

Message types (continuing the packet-type code space of
:mod:`repro.wire.packets`, which ends at ``0x4``)::

    FLOW_ANNOUNCE  0x5  client -> daemon   announce/update one flow
    FLOW_FINISH    0x6  client -> daemon   retire one flow
    ALLOC_QUERY    0x7  client -> daemon   ask one flow's allocated rate
    ALLOC_REPLY    0x8  daemon -> client   rate + bottleneck (full f64)
    SNAPSHOT_SUB   0x9  client -> daemon   subscribe to telemetry snapshots
    SNAPSHOT_EVENT 0xA  daemon -> client   one JSON telemetry snapshot
    CONTROL_ACK    0xB  daemon -> client   announce/finish acknowledgement
    CONTROL_ERROR  0xC  daemon -> client   decode/dispatch failure report

Every message shares the packets' codec base and quantizers
(:mod:`repro.wire.codec`); SNAPSHOT_EVENT and CONTROL_ERROR carry a
variable-length tail before their checksum.  Allocation weight rides as
an unsigned byte in 1/16 steps and demand as 24-bit Mbps (1 Mbps floor,
all ones meaning "network limited") — the daemon allocates from the
quantized values, so a restored daemon and an uninterrupted one agree
bit-for-bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import WireFormatError
from ..types import FlowId, NodeId
from .codec import (
    Message,
    demand_from_wire,
    demand_to_wire,
    weight_from_wire,
    weight_to_wire,
)
from .packets import packet_type

#: Control-message type codes (high nibble of body byte 0).
TYPE_FLOW_ANNOUNCE = 0x5
TYPE_FLOW_FINISH = 0x6
TYPE_ALLOC_QUERY = 0x7
TYPE_ALLOC_REPLY = 0x8
TYPE_SNAPSHOT_SUB = 0x9
TYPE_SNAPSHOT_EVENT = 0xA
TYPE_CONTROL_ACK = 0xB
TYPE_CONTROL_ERROR = 0xC

#: Frames above this size are rejected before allocation (corrupt prefix).
MAX_FRAME_SIZE = 1 << 20
#: A frame is a 4-byte big-endian body length, then the body.
_FRAME_PREFIX = struct.Struct(">I")
FRAME_PREFIX_SIZE = _FRAME_PREFIX.size

#: Reply flag bits.
_FLAG_KNOWN = 0x1
_FLAG_BOTTLENECK = 0x2

#: Ack codes.
ACK_OK = 0
ACK_UNKNOWN_FLOW = 1

#: Error codes.
ERR_MALFORMED = 1
ERR_UNSUPPORTED = 2
ERR_REJECTED = 3


#: Message type code of an (unverified) control body.
control_type = packet_type


@dataclass(frozen=True)
class FlowAnnounce(Message):
    """FLOW_ANNOUNCE: (re)announce one flow to the daemon (17 bytes)."""

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    protocol_id: int = 0
    weight: float = 1.0
    priority: int = 0
    demand_bps: float = math.inf

    TYPE = TYPE_FLOW_ANNOUNCE
    NAME = "FLOW_ANNOUNCE"
    # type, proto, flow, src, dst, weight, priority, demand:24
    LAYOUT = struct.Struct(">BBIHHBB3s")

    def _pack(self) -> tuple:
        weight, demand = weight_to_wire(self.weight), demand_to_wire(self.demand_bps)
        return 0, self.protocol_id, self.flow_id, self.src, self.dst, weight, self.priority, demand

    @classmethod
    def _unpack(cls, _nibble, protocol_id, flow_id, src, dst, weight, priority, demand):
        weight, demand = weight_from_wire(weight), demand_from_wire(demand)
        return cls(flow_id, src, dst, protocol_id, weight, priority, demand)


@dataclass(frozen=True)
class _FlowRef(Message):
    """A message naming one flow (8 bytes): FLOW_FINISH and ALLOC_QUERY.

    The two stay siblings, never subclass and base: the daemon dispatches
    on ``isinstance``.
    """

    flow_id: FlowId

    LAYOUT = struct.Struct(">BBI")  # type, reserved, flow

    def _pack(self) -> tuple:
        return (0, 0, self.flow_id)

    @classmethod
    def _unpack(cls, _nibble, _reserved, flow_id):
        return cls(flow_id)


@dataclass(frozen=True)
class FlowFinish(_FlowRef):
    """FLOW_FINISH: retire one flow from the daemon's table (8 bytes)."""

    TYPE = TYPE_FLOW_FINISH
    NAME = "FLOW_FINISH"


@dataclass(frozen=True)
class AllocQuery(_FlowRef):
    """ALLOC_QUERY: ask the daemon for one flow's allocated rate (8 bytes)."""

    TYPE = TYPE_ALLOC_QUERY
    NAME = "ALLOC_QUERY"


@dataclass(frozen=True)
class AllocReply(Message):
    """ALLOC_REPLY: one flow's rate at full float64 precision (20 bytes).

    ``known`` is ``False`` when the queried flow is not in the daemon's
    table (rate 0, no bottleneck).  The full-width rate — unlike the
    quantized announce demand — is what makes the kill/restore test's
    byte-identity meaningful.
    """

    flow_id: FlowId
    known: bool
    rate_bps: float = 0.0
    bottleneck_link: Optional[int] = None

    TYPE = TYPE_ALLOC_REPLY
    NAME = "ALLOC_REPLY"
    LAYOUT = struct.Struct(">BBIdi")  # type, flags, flow, rate_bps, bottleneck

    def _pack(self) -> tuple:
        flags = (_FLAG_KNOWN if self.known else 0) | (
            _FLAG_BOTTLENECK if self.bottleneck_link is not None else 0
        )
        bottleneck = -1 if self.bottleneck_link is None else self.bottleneck_link
        return (0, flags, self.flow_id, self.rate_bps, bottleneck)

    @classmethod
    def _unpack(cls, _nibble, flags, flow_id, rate_bps, bottleneck):
        bottleneck = bottleneck if flags & _FLAG_BOTTLENECK else None
        return cls(flow_id, bool(flags & _FLAG_KNOWN), rate_bps, bottleneck)


@dataclass(frozen=True)
class SnapshotSubscribe(Message):
    """SNAPSHOT_SUB: subscribe this connection to telemetry snapshots.

    ``max_events`` bounds how many SNAPSHOT_EVENTs the daemon will send
    (0 = unbounded); the daemon sends the current snapshot immediately and
    one per state mutation thereafter.
    """

    max_events: int = 0

    TYPE = TYPE_SNAPSHOT_SUB
    NAME = "SNAPSHOT_SUB"
    LAYOUT = struct.Struct(">BBI")  # type, reserved, max_events

    def _pack(self) -> tuple:
        return (0, 0, self.max_events)

    @classmethod
    def _unpack(cls, _nibble, _reserved, max_events):
        return cls(max_events)


@dataclass(frozen=True)
class SnapshotEvent(Message):
    """SNAPSHOT_EVENT: one telemetry snapshot, JSON payload (variable size).

    ``seq`` is the daemon's mutation sequence number at snapshot time; the
    payload is canonical (sorted-keys) JSON so identical state serializes
    identically.
    """

    seq: int
    payload: dict

    TYPE = TYPE_SNAPSHOT_EVENT
    NAME = "SNAPSHOT_EVENT"
    LAYOUT = struct.Struct(">BBII")  # type, reserved, seq, payload_len; the JSON is the tail

    def _pack(self) -> tuple:
        blob = json.dumps(self.payload, sort_keys=True, separators=(",", ":")).encode()
        if self.LAYOUT.size + len(blob) + 2 > MAX_FRAME_SIZE:
            raise WireFormatError("snapshot payload exceeds MAX_FRAME_SIZE")
        return 0, 0, self.seq, len(blob), blob

    @staticmethod
    def _tail_size(fields: tuple) -> int:
        return fields[-1]

    @classmethod
    def _unpack(cls, _nibble, _reserved, seq, _length, blob):
        try:
            payload = json.loads(blob.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"SNAPSHOT_EVENT payload is not JSON: {exc}") from None
        return cls(seq, payload)


@dataclass(frozen=True)
class ControlAck(Message):
    """CONTROL_ACK: announce/finish acknowledgement (8 bytes)."""

    flow_id: FlowId
    code: int = ACK_OK

    TYPE = TYPE_CONTROL_ACK
    NAME = "CONTROL_ACK"
    LAYOUT = struct.Struct(">BBI")  # type, code, flow

    def _pack(self) -> tuple:
        return (0, self.code, self.flow_id)

    @classmethod
    def _unpack(cls, _nibble, code, flow_id):
        return cls(flow_id, code)


@dataclass(frozen=True)
class ControlError(Message):
    """CONTROL_ERROR: decode/dispatch failure report (variable size)."""

    code: int
    message: str = ""

    TYPE = TYPE_CONTROL_ERROR
    NAME = "CONTROL_ERROR"
    LAYOUT = struct.Struct(">BBH")  # type, code, msg_len; the UTF-8 message is the tail

    def _pack(self) -> tuple:
        text = self.message.encode()[:0xFFFF]
        return 0, self.code, len(text), text

    @staticmethod
    def _tail_size(fields: tuple) -> int:
        return fields[-1]

    @classmethod
    def _unpack(cls, _nibble, code, _length, text):
        return cls(code, text.decode("utf-8", "replace"))


ControlMessage = Union[
    FlowAnnounce,
    FlowFinish,
    AllocQuery,
    AllocReply,
    SnapshotSubscribe,
    SnapshotEvent,
    ControlAck,
    ControlError,
]

_DECODERS = {message.TYPE: message.decode for message in ControlMessage.__args__}


def decode_control(body: bytes) -> ControlMessage:
    """Decode any control message body, dispatching on the type nibble.

    Raises :class:`~repro.errors.WireFormatError` on empty/truncated
    bodies, unknown types and checksum mismatches.
    """
    code = control_type(body)
    try:
        decoder = _DECODERS[code]
    except KeyError:
        raise WireFormatError(f"unknown control message type {code:#x}") from None
    return decoder(body)


def frame_length(buffer: bytes, offset: int = 0) -> int:
    """The body length a frame's 4-byte big-endian prefix at *offset*
    announces.

    Raises :class:`~repro.errors.WireFormatError` when it exceeds
    :data:`MAX_FRAME_SIZE` (the stream is considered corrupt), before
    anything is allocated for the body.
    """
    (length,) = _FRAME_PREFIX.unpack_from(buffer, offset)
    if length > MAX_FRAME_SIZE:
        raise WireFormatError(f"frame length {length} exceeds MAX_FRAME_SIZE")
    return length


def encode_frame(body: bytes) -> bytes:
    """Prefix *body* with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_SIZE:
        raise WireFormatError(f"frame of {len(body)} bytes exceeds MAX_FRAME_SIZE")
    return _FRAME_PREFIX.pack(len(body)) + body


def split_frames(buffer: bytes) -> Tuple[list, bytes]:
    """Split *buffer* into complete frame bodies plus the unconsumed tail.

    Raises :class:`~repro.errors.WireFormatError` when a length prefix
    exceeds :data:`MAX_FRAME_SIZE` (stream is considered corrupt).
    """
    bodies = []
    offset = 0
    while len(buffer) - offset >= FRAME_PREFIX_SIZE:
        length = frame_length(buffer, offset)
        start = offset + FRAME_PREFIX_SIZE
        if len(buffer) - start < length:
            break
        bodies.append(bytes(buffer[start : start + length]))
        offset = start + length
    return bodies, bytes(buffer[offset:])


__all__ = [
    "ACK_OK",
    "ACK_UNKNOWN_FLOW",
    "AllocQuery",
    "AllocReply",
    "ControlAck",
    "ControlError",
    "ControlMessage",
    "ERR_MALFORMED",
    "ERR_REJECTED",
    "ERR_UNSUPPORTED",
    "FRAME_PREFIX_SIZE",
    "FlowAnnounce",
    "FlowFinish",
    "MAX_FRAME_SIZE",
    "SnapshotEvent",
    "SnapshotSubscribe",
    "TYPE_ALLOC_QUERY",
    "TYPE_ALLOC_REPLY",
    "TYPE_CONTROL_ACK",
    "TYPE_CONTROL_ERROR",
    "TYPE_FLOW_ANNOUNCE",
    "TYPE_FLOW_FINISH",
    "TYPE_SNAPSHOT_EVENT",
    "TYPE_SNAPSHOT_SUB",
    "control_type",
    "decode_control",
    "encode_frame",
    "frame_length",
    "split_frames",
]
