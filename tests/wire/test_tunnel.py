"""R2C2-in-Ethernet tunnel framing for the switched inter-rack design (§6)."""

import pytest

from repro.errors import WireFormatError
from repro.wire import (
    ETHERNET_OVERHEAD_BYTES,
    DataPacket,
    EthernetFrame,
    mac_for,
    tunnel_overhead_fraction,
    tunnel_packet,
    untunnel_packet,
)

pytestmark = pytest.mark.synth


class TestTunnel:
    def test_roundtrip(self):
        packet = DataPacket(1, 5, 26, 0, (1, 2, 3), 0, b"hello").encode()
        frame = tunnel_packet(packet, (0, 5), (1, 10))
        assert untunnel_packet(frame) == packet
        assert len(frame) == len(packet) + ETHERNET_OVERHEAD_BYTES

    def test_fcs_detects_corruption(self):
        packet = DataPacket(1, 5, 26, 0, (1, 2, 3), 0, b"hello").encode()
        frame = bytearray(tunnel_packet(packet, (0, 5), (1, 10)))
        frame[20] ^= 0xFF
        with pytest.raises(WireFormatError):
            untunnel_packet(bytes(frame))

    def test_mac_encoding(self):
        mac = mac_for(3, 500)
        assert len(mac) == 6
        assert mac[0] == 0x02  # locally administered
        assert mac != mac_for(3, 501)
        with pytest.raises(WireFormatError):
            mac_for(70000, 0)

    def test_wrong_ethertype_rejected(self):
        frame = EthernetFrame(
            dst_mac=b"\x02" * 6, src_mac=b"\x02" * 6, payload=b"x", ethertype=0x0800
        ).encode()
        with pytest.raises(WireFormatError):
            untunnel_packet(frame)

    def test_mtu_enforced(self):
        with pytest.raises(WireFormatError):
            EthernetFrame(b"\x02" * 6, b"\x02" * 6, b"x" * 1501).encode()

    def test_overhead_fraction(self):
        assert tunnel_overhead_fraction(1500) == pytest.approx(18 / 1500)
        with pytest.raises(WireFormatError):
            tunnel_overhead_fraction(0)
