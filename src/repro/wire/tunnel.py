"""Ethernet tunneling of R2C2 packets (paper §6).

"One simple option for inter-rack networking is to just use traditional
switches and tunnel R2C2 packets by encapsulating them inside Ethernet
frames."  This module provides that encapsulation: a standard Ethernet II
header (destination/source MAC, EtherType) plus frame check sequence around
an encoded R2C2 packet, MAC addressing derived from (rack, node), and the
byte-overhead accounting that makes the paper's cost argument measurable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from ..errors import WireFormatError
from .checksum import internet_checksum

#: Ethernet II framing constants.
ETHERNET_HEADER_BYTES = 14  # dst MAC + src MAC + EtherType
ETHERNET_FCS_BYTES = 4
ETHERNET_OVERHEAD_BYTES = ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES
#: Locally administered EtherType chosen for tunneled R2C2 traffic.
ETHERTYPE_R2C2 = 0x88B5  # IEEE 802a local experimental
#: Standard Ethernet payload ceiling.
ETHERNET_MTU = 1500


def mac_for(rack: int, node: int) -> bytes:
    """A locally administered MAC address encoding (rack, node).

    Layout: ``02:C2:<rack16>:<node16>`` — the 0x02 first octet marks a
    locally administered unicast address; 16 bits each for rack and node
    match the R2C2 endpoint address space.
    """
    if not (0 <= rack <= 0xFFFF):
        raise WireFormatError(f"rack {rack} does not fit 16 bits")
    if not (0 <= node <= 0xFFFF):
        raise WireFormatError(f"node {node} does not fit 16 bits")
    return bytes([0x02, 0xC2]) + struct.pack(">HH", rack, node)


@dataclass(frozen=True)
class EthernetFrame:
    """One tunneled R2C2 packet."""

    dst_mac: bytes
    src_mac: bytes
    payload: bytes
    ethertype: int = ETHERTYPE_R2C2

    def encode(self) -> bytes:
        """Serialize header + payload + FCS."""
        if len(self.dst_mac) != 6 or len(self.src_mac) != 6:
            raise WireFormatError("MAC addresses are six bytes")
        if len(self.payload) > ETHERNET_MTU:
            raise WireFormatError(
                f"tunneled payload of {len(self.payload)} bytes exceeds the "
                f"{ETHERNET_MTU}-byte Ethernet MTU"
            )
        if not self.payload:
            raise WireFormatError("empty tunneled payload")
        header = self.dst_mac + self.src_mac + struct.pack(">H", self.ethertype)
        body = header + self.payload
        fcs = internet_checksum(body)  # stand-in for CRC32 at equal width*2
        return body + struct.pack(">I", fcs)

    @staticmethod
    def decode(buffer: bytes) -> "EthernetFrame":
        """Parse and FCS-verify a tunneled frame."""
        if len(buffer) < ETHERNET_OVERHEAD_BYTES + 1:
            raise WireFormatError("frame shorter than Ethernet overhead")
        if len(buffer) > ETHERNET_OVERHEAD_BYTES + ETHERNET_MTU:
            raise WireFormatError(
                f"tunneled payload of {len(buffer) - ETHERNET_OVERHEAD_BYTES} bytes "
                f"exceeds the {ETHERNET_MTU}-byte Ethernet MTU"
            )
        dst_mac = buffer[0:6]
        src_mac = buffer[6:12]
        (ethertype,) = struct.unpack(">H", buffer[12:14])
        payload = buffer[14:-4]
        (fcs,) = struct.unpack(">I", buffer[-4:])
        if internet_checksum(buffer[:-4]) != fcs:
            raise WireFormatError("Ethernet FCS mismatch")
        return EthernetFrame(
            dst_mac=dst_mac, src_mac=src_mac, payload=payload, ethertype=ethertype
        )


def tunnel_packet(
    packet_bytes: bytes, src: Tuple[int, int], dst: Tuple[int, int]
) -> bytes:
    """Encapsulate an encoded R2C2 packet for the inter-rack switch.

    Args:
        packet_bytes: The encoded R2C2 data packet.
        src: ``(rack, gateway_node)`` of the egress gateway.
        dst: ``(rack, gateway_node)`` of the ingress gateway.
    """
    frame = EthernetFrame(
        dst_mac=mac_for(*dst), src_mac=mac_for(*src), payload=packet_bytes
    )
    return frame.encode()


def untunnel_packet(frame_bytes: bytes) -> bytes:
    """Strip the Ethernet encapsulation; returns the R2C2 packet bytes."""
    frame = EthernetFrame.decode(frame_bytes)
    if frame.ethertype != ETHERTYPE_R2C2:
        raise WireFormatError(
            f"not a tunneled R2C2 frame (ethertype {frame.ethertype:#06x})"
        )
    return frame.payload


def tunnel_overhead_fraction(payload_bytes: int) -> float:
    """Relative byte overhead of tunneling a packet of *payload_bytes*.

    Part of the paper's argument against the switched option: "the need to
    bridge between R2C2 and Ethernet would increase the overhead and the
    end-to-end latency".
    """
    if payload_bytes < 1:
        raise WireFormatError("payload must be at least one byte")
    return ETHERNET_OVERHEAD_BYTES / payload_bytes
