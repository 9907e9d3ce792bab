"""R2C2-in-Ethernet tunnel framing for the switched inter-rack design (§6)."""

import pytest

from repro.errors import WireFormatError
from repro.wire import (
    ETHERNET_OVERHEAD_BYTES,
    ETHERTYPE_R2C2,
    DataPacket,
    EthernetFrame,
    internet_checksum,
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

    def test_decode_refuses_what_encode_refuses(self):
        # A 2,000-byte payload under a valid FCS: the decoded frame could
        # not be encoded again (MTU).
        body = mac_for(1, 10) + mac_for(0, 5) + ETHERTYPE_R2C2.to_bytes(2, "big") + b"x" * 2000
        frame = body + internet_checksum(body).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="MTU"):
            EthernetFrame.decode(frame)

    def test_overhead_fraction(self):
        assert tunnel_overhead_fraction(1500) == pytest.approx(18 / 1500)
        with pytest.raises(WireFormatError):
            tunnel_overhead_fraction(0)
