"""Tests for checksums, route encoding and packet formats."""

import math
import random

import pytest

from repro.errors import WireFormatError
from repro.wire import (
    BROADCAST_PACKET_SIZE,
    DATA_HEADER_SIZE,
    EVENT_DEMAND_UPDATE,
    EVENT_FLOW_FINISH,
    EVENT_FLOW_START,
    MAX_HOPS,
    BroadcastPacket,
    DataPacket,
    DropNotificationPacket,
    RouteUpdatePacket,
    internet_checksum,
    pack_route,
    packet_type,
    port_at,
    unpack_route,
    xor8,
)
from repro.wire.packets import TYPE_BROADCAST, TYPE_DATA, TYPE_ROUTE_UPDATE


def rfc1071_checksum(data: bytes) -> int:
    """The RFC 1071 word loop: the reference ``internet_checksum`` must equal."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksums:
    def test_internet_checksum_matches_rfc1071_loop(self):
        rng = random.Random(1071)
        buffers = [b"", b"\x00", b"\x00" * 7, b"\xff", b"\xff\xff", b"\xff" * 1500,
                   b"\x00\x01", b"\xff\xfe\x00\x01"]
        buffers += [rng.randbytes(rng.randint(1, 1500)) for _ in range(2000)]
        for data in buffers:
            assert internet_checksum(data) == rfc1071_checksum(data), data.hex()

    def test_internet_checksum_detects_flip(self):
        data = b"hello world, this is a packet"
        base = internet_checksum(data)
        flipped = bytes([data[0] ^ 0xFF]) + data[1:]
        assert internet_checksum(flipped) != base

    def test_internet_checksum_odd_length(self):
        assert internet_checksum(b"abc") == internet_checksum(b"abc\x00")

    def test_internet_checksum_is_16_bit(self):
        assert 0 <= internet_checksum(b"\xff" * 100) <= 0xFFFF

    def test_xor8_detects_flip_and_truncation(self):
        data = b"0123456789"
        assert xor8(data[:-1]) != xor8(data)
        flipped = bytes([data[0] ^ 1]) + data[1:]
        assert xor8(flipped) != xor8(data)


class TestRouteEncoding:
    def test_roundtrip(self):
        ports = [0, 1, 2, 3, 4, 5, 6, 7, 0, 3]
        assert unpack_route(pack_route(ports), len(ports)) == ports

    def test_max_hops_is_42(self):
        # §4.2: "routes with up to 42 hops".
        assert MAX_HOPS == 42
        pack_route([7] * 42)
        with pytest.raises(WireFormatError):
            pack_route([0] * 43)

    def test_port_range(self):
        with pytest.raises(WireFormatError):
            pack_route([8])

    def test_port_at(self):
        field = pack_route([3, 1, 4])
        assert port_at(field, 0) == 3
        assert port_at(field, 1) == 1
        assert port_at(field, 2) == 4

    def test_field_size_validation(self):
        with pytest.raises(WireFormatError):
            unpack_route(b"\x00" * 15, 1)


class TestDataPacket:
    def make(self, **overrides):
        defaults = dict(
            flow_id=77,
            src=12,
            dst=500,
            seq=3,
            route_ports=(1, 2, 3),
            route_index=0,
            payload=b"abcdef",
        )
        defaults.update(overrides)
        return DataPacket(**defaults)

    def test_roundtrip(self):
        packet = self.make()
        assert DataPacket.decode(packet.encode()) == packet

    def test_header_size(self):
        assert DATA_HEADER_SIZE == 35
        assert self.make(payload=b"").wire_size == 35

    def test_checksum_detects_payload_corruption(self):
        raw = bytearray(self.make().encode())
        raw[-1] ^= 0xFF
        with pytest.raises(WireFormatError):
            DataPacket.decode(bytes(raw))

    def test_route_index_mutation_preserves_checksum(self):
        # Forwarders bump ridx in place; the checksum excludes it.
        raw = bytearray(self.make().encode())
        raw[2] += 1
        decoded = DataPacket.decode(bytes(raw))
        assert decoded.route_index == 1

    def test_advance(self):
        packet = self.make()
        assert packet.next_port == 1
        advanced = packet.advance()
        assert advanced.route_index == 1
        assert advanced.next_port == 2

    def test_advance_past_end_raises(self):
        packet = self.make(route_index=3)
        with pytest.raises(WireFormatError):
            packet.advance()
        with pytest.raises(WireFormatError):
            packet.next_port

    def test_length_mismatch_detected(self):
        raw = self.make().encode() + b"extra"
        with pytest.raises(WireFormatError):
            DataPacket.decode(raw)

    def test_field_range_validation(self):
        with pytest.raises(WireFormatError):
            self.make(src=70000).encode()
        with pytest.raises(WireFormatError):
            self.make(flow_id=1 << 33).encode()
        with pytest.raises(WireFormatError):
            self.make(route_index=5).encode()

    def test_65536_node_address_space(self):
        # §4.2: "The size of endpoints allows for up to 65,536 nodes."
        self.make(src=65535, dst=65535).encode()


class TestBroadcastPacket:
    def make(self, **overrides):
        defaults = dict(
            event=EVENT_FLOW_START,
            src=3,
            dst=400,
            flow_id=123456,
            weight=1.0,
            priority=2,
            demand_bps=math.inf,
            tree_id=3,
            protocol_id=2,
        )
        defaults.update(overrides)
        return BroadcastPacket(**defaults)

    def test_fixed_16_bytes(self):
        # §3.2 / Figure 6: broadcast packets are exactly 16 bytes.
        assert BROADCAST_PACKET_SIZE == 16
        assert len(self.make().encode()) == 16

    def test_roundtrip(self):
        packet = self.make()
        assert BroadcastPacket.decode(packet.encode()) == packet

    def test_demand_4tbps(self):
        # Figure 6: demand field covers "up to 4 Tbps".
        packet = self.make(event=EVENT_DEMAND_UPDATE, demand_bps=4e12)
        assert BroadcastPacket.decode(packet.encode()).demand_bps == 4e12

    def test_infinite_demand_roundtrip(self):
        decoded = BroadcastPacket.decode(self.make(demand_bps=math.inf).encode())
        assert math.isinf(decoded.demand_bps)

    def test_weight_quantization(self):
        decoded = BroadcastPacket.decode(self.make(weight=2.5).encode())
        assert decoded.weight == pytest.approx(2.5)
        # Sixteenths resolution.
        decoded = BroadcastPacket.decode(self.make(weight=1.03).encode())
        assert abs(decoded.weight - 1.03) <= 1 / 32

    def test_checksum(self):
        raw = bytearray(self.make().encode())
        raw[5] ^= 0x55
        with pytest.raises(WireFormatError):
            BroadcastPacket.decode(bytes(raw))

    def test_all_events(self):
        for event in (EVENT_FLOW_START, EVENT_FLOW_FINISH, EVENT_DEMAND_UPDATE):
            assert BroadcastPacket.decode(self.make(event=event).encode()).event == event

    def test_field_limits(self):
        with pytest.raises(WireFormatError):
            self.make(tree_id=16).encode()
        with pytest.raises(WireFormatError):
            self.make(protocol_id=16).encode()
        with pytest.raises(WireFormatError):
            self.make(weight=100.0).encode()
        with pytest.raises(WireFormatError):
            self.make(event=9).encode()


class TestRouteUpdatePacket:
    def test_roundtrip(self):
        packet = RouteUpdatePacket(assignments=((1, 0), (2, 2), (3, 1)))
        assert RouteUpdatePacket.decode(packet.encode()) == packet

    def test_about_300_entries_per_1500_bytes(self):
        # §3.4: "up to 300 {flow, routing protocol} pairs ... in a single
        # 1,500-byte packet".
        assert 295 <= RouteUpdatePacket.MAX_ENTRIES <= 300
        big = RouteUpdatePacket(
            assignments=tuple((i, i % 3) for i in range(RouteUpdatePacket.MAX_ENTRIES))
        )
        assert len(big.encode()) <= 1500

    def test_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            RouteUpdatePacket(
                assignments=tuple((i, 0) for i in range(RouteUpdatePacket.MAX_ENTRIES + 1))
            ).encode()

    def test_checksum(self):
        raw = bytearray(RouteUpdatePacket(assignments=((9, 1),)).encode())
        raw[-1] ^= 0x01
        with pytest.raises(WireFormatError):
            RouteUpdatePacket.decode(bytes(raw))


class TestDropNotification:
    def test_roundtrip(self):
        packet = DropNotificationPacket(dropped_at=9, source=2, seq=1234)
        assert DropNotificationPacket.decode(packet.encode()) == packet

    def test_checksum(self):
        raw = bytearray(DropNotificationPacket(1, 2, 3).encode())
        raw[3] ^= 0xFF
        with pytest.raises(WireFormatError):
            DropNotificationPacket.decode(bytes(raw))


class TestDispatch:
    def test_packet_type(self):
        data = DataPacket(1, 0, 1, 0, (0,), 0, b"").encode()
        bcast = BroadcastPacket(EVENT_FLOW_START, 0, 1, 2).encode()
        update = RouteUpdatePacket(((1, 1),)).encode()
        assert packet_type(data) == TYPE_DATA
        assert packet_type(bcast) == TYPE_BROADCAST
        assert packet_type(update) == TYPE_ROUTE_UPDATE

    def test_empty_buffer(self):
        with pytest.raises(WireFormatError):
            packet_type(b"")
