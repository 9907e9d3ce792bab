"""Checksums for R2C2 packets.

Data packets carry the classic 16-bit Internet checksum (RFC 1071); the
16-byte broadcast packet only has room for a single byte, so it uses an
XOR-fold.  Both are cheap enough for software forwarding and catch the
corruption the paper's failure handling cares about (§3.2).
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement sum over 16-bit words, complemented.

    Odd-length input is zero-padded.  Returns a 16-bit value; senders store
    the checksum computed with the field zeroed and receivers compare
    against it.  The sum is one fold: 2**16 is 1 modulo 0xFFFF, so the
    ones'-complement sum of the words is the buffer's value modulo 0xFFFF,
    read as 0xFFFF rather than 0 when any byte is set.
    """
    total = int.from_bytes(data, "big") << (8 * (len(data) & 1))
    folded = total % 0xFFFF
    if total and not folded:
        folded = 0xFFFF
    return ~folded & 0xFFFF


def xor8(data: bytes) -> int:
    """One-byte XOR fold, used by the fixed-size broadcast packet."""
    acc = 0
    for b in data:
        acc ^= b
    # Fold in the length so truncations don't go unnoticed.
    return (acc ^ (len(data) & 0xFF)) & 0xFF
