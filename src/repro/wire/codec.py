"""The one codec behind every R2C2 message, and the one quantization rule
(paper §4.2, Fig. 6).

:class:`Message` seals and checks every R2C2 message, fixed or with a
variable-length tail: byte 0 carries the type in its high nibble and one
checksum, the 16-bit store-zeroed Internet checksum or the broadcast's
xor8, ends the message or sits in its head.  The broadcast packet and
FLOW_ANNOUNCE share the quantizers: a weight is one
byte in 1/16 steps (1..255), a demand 24-bit whole Mbps with all ones
meaning "network limited" and a 1 Mbps floor (a zero-Mbps field would
decode into a spec no allocator accepts).  Receivers allocate from the
decoded values, so a sender must too.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Callable, ClassVar, Optional, Tuple

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


class Message:
    """Base of every R2C2 message: a head, an optional tail, one checksum.

    A subclass (a frozen dataclass) sets ``TYPE``, ``NAME`` (for errors)
    and one precompiled ``LAYOUT``, the head; byte 0 carries ``TYPE`` in
    its high nibble.  ``_pack()`` returns the low nibble of byte 0 and the
    other head fields; the classmethod ``_unpack(nibble, *fields)`` builds
    the message from the same values.  A message with a tail also returns
    the tail bytes last from ``_pack()``, takes them last in ``_unpack``,
    and sets ``_tail_size(fields)``, the tail's length from the unpacked
    head.  The checksum (``CHECKSUM``, Internet by default, or xor8) is the
    message's last bytes, or sits at head offset ``CHECKSUM_AT``, where
    ``_pack()`` puts a 0 and ``_unpack`` gets the stored value; it reads
    that field and the head bytes at the offsets in ``UNCHECKED`` as zero.
    The base does the rest once: sealing, the length / type / checksum
    checks, and turning a value a field cannot carry (``struct.error``)
    into a ``WireFormatError`` naming the message and the value.
    """

    TYPE: ClassVar[int]
    NAME: ClassVar[str]
    LAYOUT: ClassVar[struct.Struct]
    CHECKSUM: ClassVar[tuple] = INTERNET
    CHECKSUM_AT: ClassVar[Optional[int]] = None
    UNCHECKED: ClassVar[Tuple[int, ...]] = ()
    _tail_size: ClassVar[Optional[Callable[[tuple], int]]] = None

    def encode(self) -> bytes:
        """Serialize into head, tail and checksum."""
        nibble, *fields = self._pack()
        tail = fields.pop() if self._tail_size else b""
        body = self._packed(self.LAYOUT, (self.TYPE << 4 | nibble, *fields)) + tail
        checksum, width = self.CHECKSUM
        seal = checksum(self._covered(body)).to_bytes(width, "big")
        at = self.CHECKSUM_AT
        return body + seal if at is None else body[:at] + seal + body[at + width:]

    @classmethod
    def decode(cls, body: bytes):
        """Parse and checksum-verify one encoded message."""
        layout, (checksum, width), at = cls.LAYOUT, cls.CHECKSUM, cls.CHECKSUM_AT
        trailer = width if at is None else 0
        size = layout.size + trailer
        if len(body) < size:
            raise WireFormatError(f"{cls.NAME} truncated at {len(body)} bytes")
        if body[0] >> 4 != cls.TYPE:
            raise WireFormatError(f"not a {cls.NAME} (type {body[0] >> 4:#x})")
        fields = layout.unpack_from(body)
        if cls._tail_size:
            size += cls._tail_size(fields)
        if len(body) != size:
            raise WireFormatError(f"{cls.NAME} is {size} bytes, got {len(body)}")
        if at is None:
            covered, stored = body[:-width], body[-width:]
        else:
            covered, stored = body, body[at : at + width]
        if checksum(cls._covered(covered)) != int.from_bytes(stored, "big"):
            raise WireFormatError(f"{cls.NAME} checksum mismatch")
        if cls._tail_size:
            tail = body[layout.size : size - trailer]
            return cls._unpack(fields[0] & 0xF, *fields[1:], tail)
        return cls._unpack(fields[0] & 0xF, *fields[1:])

    @classmethod
    def _covered(cls, body: bytes) -> bytes:
        """*body* (less a trailing checksum) as the checksum reads it: the
        field at ``CHECKSUM_AT`` and the ``UNCHECKED`` bytes zeroed."""
        at = cls.CHECKSUM_AT
        if at is None and not cls.UNCHECKED:
            return body
        body = bytearray(body)
        if at is not None:
            body[at : at + cls.CHECKSUM[1]] = bytes(cls.CHECKSUM[1])
        for offset in cls.UNCHECKED:
            body[offset] = 0
        return body

    def _packed(self, layout: struct.Struct, values: tuple) -> bytes:
        """*values* packed by *layout*, or a ``WireFormatError`` naming the
        first value its field cannot carry."""
        try:
            return layout.pack(*values)
        except struct.error as exc:
            culprit = next(
                (value for code, value in zip(_FIELD.findall(layout.format[1:]), values)
                 if not _fits(layout.format[0] + code, value)),
                values,
            )
            raise WireFormatError(f"{self.NAME} cannot carry {culprit!r}: {exc}") from None


#: One field code of a struct format (``B``, ``16s``, ...).
_FIELD = re.compile(r"\d*\D")


def _fits(fmt: str, value) -> bool:
    try:
        struct.pack(fmt, value)
    except struct.error:
        return False
    return True
