"""R2C2 packet formats (paper §4.2, Figure 6).

Two packet classes exist on the wire:

* **Data packets** are variable sized: a 35-byte header (route length and
  index, flow id, endpoints, sequence number, checksum, payload length and
  the 128-bit source route) followed by the payload.
* **Broadcast packets** are fixed 16-byte packets announcing flow events.

Layout of the broadcast packet (16 bytes)::

    type:4 event:4 | src:16 | dst:16 | flow:32 | weight:8 | priority:8 |
    demand_mbps:24 | tree:4 rp:4 | checksum:8

Deviation from the paper, documented: the paper's broadcast packet carries a
16-bit checksum and no flow identifier (flows are implicitly keyed by the
endpoint pair); we spend one checksum byte on distinguishing concurrent
flows between the same endpoints, and carry demand in Mbps over 24 bits
(max ≈16.7 Tbps, comfortably covering the paper's 4 Tbps ceiling).

A third, small format carries the §3.4 routing re-assignments: 4-byte flow
id plus 1-byte protocol per entry, ≈300 entries per 1500-byte packet.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Tuple

from ..errors import WireFormatError
from ..types import FlowId, NodeId
from .codec import (
    XOR8,
    Message,
    demand_from_wire,
    demand_to_wire,
    weight_from_wire,
    weight_to_wire,
)
from .route_encoding import MAX_HOPS, ROUTE_FIELD_BYTES, pack_route, unpack_route

#: Packet type codes (the high nibble of the first byte).
TYPE_DATA = 0x1
TYPE_BROADCAST = 0x2
TYPE_ROUTE_UPDATE = 0x3
TYPE_DROP_NOTIFICATION = 0x4

#: Broadcast event codes (the low nibble of the first byte).
EVENT_FLOW_START = 0x1
EVENT_FLOW_FINISH = 0x2
EVENT_DEMAND_UPDATE = 0x3
EVENT_REANNOUNCE = 0x4

#: Fixed sizes.
BROADCAST_PACKET_SIZE = 16
DATA_HEADER_SIZE = 35

_EVENTS = (EVENT_FLOW_START, EVENT_FLOW_FINISH, EVENT_DEMAND_UPDATE, EVENT_REANNOUNCE)

#: Byte offsets into an encoded data header, for a forwarder that reads
#: it in place (the Maze server): route length, route index (bumped at
#: every hop, outside the checksum) and the route field, which ends the
#: header.
DATA_RLEN_OFFSET = 1
DATA_RIDX_OFFSET = 2
DATA_ROUTE_OFFSET = DATA_HEADER_SIZE - ROUTE_FIELD_BYTES
#: Byte offsets into an encoded broadcast packet: the source (two bytes)
#: and the byte whose high nibble is the tree id.
BROADCAST_SRC_OFFSET = 1
BROADCAST_TREE_OFFSET = BROADCAST_PACKET_SIZE - 2


@dataclass(frozen=True)
class DataPacket(Message):
    """A source-routed data packet.

    ``route_ports`` holds the full port list; ``route_index`` is the hop the
    packet is about to take (incremented by every forwarder).
    """

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    seq: int
    route_ports: Tuple[int, ...]
    route_index: int
    payload: bytes

    TYPE = TYPE_DATA
    NAME = "data packet"
    # type, rlen, ridx, flow, src, dst, seq, csum, plen, route; the payload is the tail
    LAYOUT = struct.Struct(">BBBIHHIHH16s")
    CHECKSUM_AT = 15
    # Forwarders bump the route index in place at every hop (§3.5) and must
    # not have to touch the checksum — the rule IP applies to its TTL.
    UNCHECKED = (DATA_RIDX_OFFSET,)

    def _pack(self) -> tuple:
        if not (0 <= self.route_index <= len(self.route_ports) <= MAX_HOPS):
            raise WireFormatError(
                f"route index {self.route_index} / length {len(self.route_ports)} invalid"
            )
        route = pack_route(self.route_ports)
        return (0, len(self.route_ports), self.route_index, self.flow_id, self.src,
                self.dst, self.seq, 0, len(self.payload), route, self.payload)

    @staticmethod
    def _tail_size(fields: tuple) -> int:
        return fields[8]

    @classmethod
    def _unpack(cls, _nibble, rlen, ridx, flow_id, src, dst, seq, _checksum, _plen, route,
                payload):
        if ridx > rlen or rlen > MAX_HOPS:
            raise WireFormatError(f"invalid route fields rlen={rlen} ridx={ridx}")
        return cls(flow_id, src, dst, seq, tuple(unpack_route(route, rlen)), ridx, payload)

    def advance(self) -> "DataPacket":
        """The packet as re-emitted by a forwarder: route index + 1."""
        if self.route_index >= len(self.route_ports):
            raise WireFormatError("cannot advance past the end of the route")
        return DataPacket(
            flow_id=self.flow_id,
            src=self.src,
            dst=self.dst,
            seq=self.seq,
            route_ports=self.route_ports,
            route_index=self.route_index + 1,
            payload=self.payload,
        )

    @property
    def next_port(self) -> int:
        """The port this packet leaves on at the current hop."""
        if self.route_index >= len(self.route_ports):
            raise WireFormatError("packet is at its destination; no next port")
        return self.route_ports[self.route_index]


@dataclass(frozen=True)
class BroadcastPacket(Message):
    """The fixed 16-byte flow-event announcement."""

    event: int
    src: NodeId
    dst: NodeId
    flow_id: FlowId
    weight: float = 1.0
    priority: int = 0
    demand_bps: float = math.inf
    tree_id: int = 0
    protocol_id: int = 0

    TYPE = TYPE_BROADCAST
    NAME = "broadcast packet"
    # type:4 event:4, src, dst, flow, weight, priority, demand:24, tree:4 rp:4
    LAYOUT = struct.Struct(">BHHIBB3sB")
    CHECKSUM = XOR8

    def _pack(self) -> tuple:
        if self.event not in _EVENTS:
            raise WireFormatError(f"unknown broadcast event {self.event}")
        if not (0 <= self.tree_id <= 0xF):
            raise WireFormatError(f"tree id {self.tree_id} does not fit four bits")
        if not (0 <= self.protocol_id <= 0xF):
            raise WireFormatError(f"protocol id {self.protocol_id} does not fit four bits")
        weight, demand = weight_to_wire(self.weight), demand_to_wire(self.demand_bps)
        tree_rp = (self.tree_id << 4) | self.protocol_id
        return self.event, self.src, self.dst, self.flow_id, weight, self.priority, demand, tree_rp

    @classmethod
    def _unpack(cls, event, src, dst, flow_id, weight, priority, demand, tree_rp):
        weight, demand = weight_from_wire(weight), demand_from_wire(demand)
        return cls(event, src, dst, flow_id, weight, priority, demand, tree_rp >> 4, tree_rp & 0xF)


assert DataPacket.LAYOUT.size == DATA_HEADER_SIZE
assert BroadcastPacket.LAYOUT.size + XOR8[1] == BROADCAST_PACKET_SIZE


_ROUTE_ENTRY = struct.Struct(">IB")  # flow, protocol


@dataclass(frozen=True)
class RouteUpdatePacket(Message):
    """Routing re-assignments from the selection process (§3.4).

    Each entry is a ``(flow_id, protocol_id)`` pair costing five bytes;
    about 300 fit in a 1500-byte packet, matching the paper's estimate.
    """

    assignments: Tuple[Tuple[FlowId, int], ...]

    TYPE = TYPE_ROUTE_UPDATE
    NAME = "route-update packet"
    LAYOUT = struct.Struct(">BHH")  # type, count, csum; the entries are the tail
    CHECKSUM_AT = 3
    MAX_ENTRIES = (1500 - LAYOUT.size) // _ROUTE_ENTRY.size

    def _pack(self) -> tuple:
        if len(self.assignments) > self.MAX_ENTRIES:
            raise WireFormatError(
                f"{len(self.assignments)} assignments exceed the "
                f"{self.MAX_ENTRIES}-entry packet limit"
            )
        entries = b"".join(self._packed(_ROUTE_ENTRY, entry) for entry in self.assignments)
        return 0, len(self.assignments), 0, entries

    @staticmethod
    def _tail_size(fields: tuple) -> int:
        return fields[1] * _ROUTE_ENTRY.size

    @classmethod
    def _unpack(cls, _nibble, _count, _checksum, entries):
        return cls(tuple(_ROUTE_ENTRY.iter_unpack(entries)))


@dataclass(frozen=True)
class DropNotificationPacket(Message):
    """A forwarder informing a broadcast's source of a queue-overflow drop."""

    dropped_at: NodeId
    source: NodeId
    seq: int

    TYPE = TYPE_DROP_NOTIFICATION
    NAME = "drop notification"
    LAYOUT = struct.Struct(">BHHI")  # type, dropped_at, source, seq
    CHECKSUM = XOR8
    SIZE = LAYOUT.size + XOR8[1]

    def _pack(self) -> tuple:
        return (0, self.dropped_at, self.source, self.seq)

    @classmethod
    def _unpack(cls, _nibble, dropped_at, source, seq):
        return cls(dropped_at, source, seq)


def packet_type(buffer: bytes) -> int:
    """The type code of any encoded packet (dispatch helper)."""
    if not buffer:
        raise WireFormatError("empty buffer")
    return buffer[0] >> 4

