"""The one codec behind every fixed-layout R2C2 message, and the one
quantization rule (paper §4.2, Fig. 6).

:class:`FixedMessage` seals and checks every fixed-size body: byte 0
carries the type in its high nibble and the last field is the checksum,
the 16-bit store-zeroed Internet checksum or the broadcast's xor8.  The
broadcast packet and FLOW_ANNOUNCE share the quantizers: a weight is one
byte in 1/16 steps (1..255), a demand 24-bit whole Mbps with all ones
meaning "network limited" and a 1 Mbps floor (a zero-Mbps field would
decode into a spec no allocator accepts).  Receivers allocate from the
decoded values, so a sender must too.
"""

from __future__ import annotations

import math
import struct
from typing import ClassVar

from ..errors import WireFormatError
from .checksum import internet_checksum, xor8

#: Weight quantization: one byte, 1 unit = 1/16 (1/16 .. 15.9375).
WEIGHT_SCALE = 16
#: Demand value meaning "network limited / unknown" (all ones).
DEMAND_INF_MBPS = (1 << 24) - 1
_DEMAND_INF_FIELD = DEMAND_INF_MBPS.to_bytes(3, "big")

#: Checksum kinds: ``(function over the body before the field, field bytes)``.
INTERNET = (internet_checksum, 2)
XOR8 = (xor8, 1)


def weight_to_wire(weight: float) -> int:
    """The weight byte carrying *weight* (nearest 1/16 step)."""
    q = round(weight * WEIGHT_SCALE) if math.isfinite(weight) else 0
    if not 1 <= q <= 0xFF:
        raise WireFormatError(
            f"weight {weight} outside encodable range "
            f"[{1 / WEIGHT_SCALE}, {0xFF / WEIGHT_SCALE}]"
        )
    return q


def weight_from_wire(q: int) -> float:
    """The weight a weight byte decodes to."""
    return q / WEIGHT_SCALE


def demand_to_wire(demand_bps: float) -> bytes:
    """The 3-byte field carrying *demand_bps* (nearest Mbps, 1 Mbps floor)."""
    if demand_bps == math.inf:
        return _DEMAND_INF_FIELD
    mbps = round(demand_bps / 1e6) if demand_bps >= 0 else -1  # NaN included
    if not 0 <= mbps < DEMAND_INF_MBPS:
        raise WireFormatError(f"demand {demand_bps} bps outside 24-bit Mbps range")
    return max(1, mbps).to_bytes(3, "big")


def demand_from_wire(field: bytes) -> float:
    """The demand (bps) a 3-byte demand field decodes to."""
    mbps = int.from_bytes(field, "big")
    return math.inf if mbps == DEMAND_INF_MBPS else mbps * 1e6


class FixedMessage:
    """Base of every fixed-layout message.

    A subclass (a frozen dataclass) sets ``TYPE``, ``NAME`` (for errors),
    one precompiled ``LAYOUT`` and, for xor8, ``CHECKSUM``.  Its
    ``_pack()`` returns the low nibble of byte 0 and every field up to the
    checksum; the classmethod ``_unpack(nibble, *fields)`` builds the
    message from the same values.  The base does the rest once: sealing,
    the length / type / checksum checks, and turning a value the layout
    cannot carry (``struct.error``) into a ``WireFormatError`` naming the
    message.
    """

    TYPE: ClassVar[int]
    NAME: ClassVar[str]
    LAYOUT: ClassVar[struct.Struct]
    CHECKSUM: ClassVar[tuple] = INTERNET

    def encode(self) -> bytes:
        """Serialize into exactly ``LAYOUT.size`` checksummed bytes."""
        nibble, *fields = self._pack()
        checksum, width = self.CHECKSUM
        try:
            head = self.LAYOUT.pack(self.TYPE << 4 | nibble, *fields, 0)[:-width]
        except struct.error as exc:
            raise WireFormatError(f"{self.NAME} cannot carry {self!r}: {exc}") from None
        return head + checksum(head).to_bytes(width, "big")

    @classmethod
    def decode(cls, body: bytes):
        """Parse and checksum-verify one encoded message."""
        layout = cls.LAYOUT
        if len(body) != layout.size:
            raise WireFormatError(f"{cls.NAME} is {layout.size} bytes, got {len(body)}")
        if body[0] >> 4 != cls.TYPE:
            raise WireFormatError(f"not a {cls.NAME} (type {body[0] >> 4:#x})")
        checksum, width = cls.CHECKSUM
        if checksum(body[:-width]) != int.from_bytes(body[-width:], "big"):
            raise WireFormatError(f"{cls.NAME} checksum mismatch")
        fields = layout.unpack(body)
        return cls._unpack(fields[0] & 0xF, *fields[1:-1])

