"""Lightweight in-simulator packet objects.

The simulator does not serialize every packet to bytes (that would dominate
runtime); instead :class:`SimPacket` carries the same fields the wire
formats define, plus the byte sizes those formats imply, and tests assert
that representative simulator packets round-trip through the real encoders
(:mod:`repro.wire`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..types import FlowId, NodeId
from ..wire.packets import BROADCAST_PACKET_SIZE, DATA_HEADER_SIZE

#: Packet kinds.
KIND_DATA = 0
KIND_BROADCAST = 1
KIND_ACK = 2
KIND_PAUSE = 3
KIND_DROP_NOTE = 4

#: ACKs model a minimal reverse-direction header.
ACK_SIZE_BYTES = 40
#: Drop notifications mirror the 10-byte wire format.
DROP_NOTE_SIZE_BYTES = 10


class SimPacket:
    """One packet in flight.

    Attributes mirror the R2C2 wire formats.  For a data, ACK or drop
    note, ``path`` is the explicit node route (source routing), with
    ``hop`` the index of the node the packet currently sits at —
    :class:`~repro.sim.network.RackNetwork` advances it and indexes the
    route per hop.  A broadcast is one object for the whole tree: ``inject``
    sets its ``path`` to the tree's children table, so ``path[node]`` is
    the nodes *node* forwards it to, and its ``hop`` is never read.
    """

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size_bytes",
        "path",
        "hop",
        "tree_id",
        "payload",
        "sent_ns",
        "obs",
    )

    def __init__(
        self,
        kind: int,
        flow_id: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: int,
        size_bytes: int,
        path: Optional[Tuple[NodeId, ...]] = None,
        tree_id: int = 0,
        payload=None,
        sent_ns: int = 0,
    ) -> None:
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size_bytes = size_bytes
        self.path = path
        self.hop = 0
        self.tree_id = tree_id
        self.payload = payload
        self.sent_ns = sent_ns
        #: optional causal-tracing record (repro.obs.PacketObs); None on
        #: every default path — hot-path hooks guard on ``is not None``.
        self.obs = None


def data_packet_size(payload_bytes: int) -> int:
    """Wire size of a data packet with *payload_bytes* of payload."""
    return DATA_HEADER_SIZE + payload_bytes


def broadcast_packet_size() -> int:
    """Wire size of a broadcast packet (fixed 16 bytes)."""
    return BROADCAST_PACKET_SIZE
