"""Property tests for the control-plane and broadcast message codecs.

The daemon trusts :mod:`repro.wire.control`, and every R2C2 node the
packets of :mod:`repro.wire.packets`, for two things: any
message a sender encodes decodes back to the identical value (after the
documented weight/demand quantization), and anything damaged in flight —
truncated, bit-flipped, mis-framed — is rejected with
:class:`WireFormatError` rather than silently mis-parsed.  Hypothesis
drives both directions.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.wire import (
    EVENT_DEMAND_UPDATE,
    EVENT_FLOW_START,
    EVENT_REANNOUNCE,
    MAX_FRAME_SIZE,
    MAX_HOPS,
    TYPE_BROADCAST,
    TYPE_DATA,
    TYPE_DROP_NOTIFICATION,
    TYPE_ROUTE_UPDATE,
    AllocQuery,
    AllocReply,
    BroadcastPacket,
    ControlAck,
    ControlError,
    DataPacket,
    DropNotificationPacket,
    FlowAnnounce,
    FlowFinish,
    RouteUpdatePacket,
    SnapshotEvent,
    SnapshotSubscribe,
    control_type,
    decode_control,
    encode_frame,
    split_frames,
)
from repro.wire.codec import DEMAND_INF_MBPS, WEIGHT_SCALE

flow_ids = st.integers(min_value=0, max_value=2**32 - 1)
node_ids = st.integers(min_value=0, max_value=2**16 - 1)
# Weights that survive the u8 x1/16 quantization exactly.
weights = st.integers(min_value=1, max_value=0xFF).map(lambda q: q / WEIGHT_SCALE)
# Demands that survive the 24-bit Mbps quantization exactly (or inf).
demands = st.one_of(
    st.just(math.inf),
    st.integers(min_value=1, max_value=DEMAND_INF_MBPS - 1).map(lambda m: m * 1e6),
)
priorities = st.integers(min_value=0, max_value=0xFF)
protocol_ids = st.integers(min_value=0, max_value=0xFF)
rates = st.floats(allow_nan=False, min_value=0.0, max_value=1e15)

announces = st.builds(
    FlowAnnounce,
    flow_id=flow_ids,
    src=node_ids,
    dst=node_ids,
    protocol_id=protocol_ids,
    weight=weights,
    priority=priorities,
    demand_bps=demands,
)
finishes = st.builds(FlowFinish, flow_id=flow_ids)
queries = st.builds(AllocQuery, flow_id=flow_ids)
replies = st.builds(
    AllocReply,
    flow_id=flow_ids,
    known=st.booleans(),
    rate_bps=rates,
    bottleneck_link=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
)
subscribes = st.builds(SnapshotSubscribe, max_events=st.integers(0, 2**32 - 1))
json_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6), st.text(max_size=8)),
    max_size=6,
)
events = st.builds(
    SnapshotEvent, seq=st.integers(0, 2**32 - 1), payload=json_payloads
)
acks = st.builds(ControlAck, flow_id=flow_ids, code=st.integers(0, 0xFF))
errors = st.builds(
    ControlError, code=st.integers(0, 0xFF), message=st.text(max_size=64)
)

broadcasts = st.builds(
    BroadcastPacket,
    event=st.integers(EVENT_FLOW_START, EVENT_REANNOUNCE),
    src=node_ids,
    dst=node_ids,
    flow_id=flow_ids,
    weight=weights,
    priority=priorities,
    demand_bps=demands,
    tree_id=st.integers(0, 0xF),
    protocol_id=st.integers(0, 0xF),
)
drop_notes = st.builds(
    DropNotificationPacket,
    dropped_at=node_ids,
    source=node_ids,
    seq=st.integers(0, 2**32 - 1),
)

routes = st.lists(st.integers(0, 7), max_size=MAX_HOPS).map(tuple)
data_packets = routes.flatmap(
    lambda route: st.builds(
        DataPacket,
        flow_id=flow_ids,
        src=node_ids,
        dst=node_ids,
        seq=st.integers(0, 2**32 - 1),
        route_ports=st.just(route),
        route_index=st.integers(0, len(route)),
        payload=st.binary(max_size=64),
    )
)
route_updates = st.builds(
    RouteUpdatePacket,
    st.lists(st.tuples(flow_ids, st.integers(0, 0xFF)), max_size=8).map(tuple),
)

messages = st.one_of(
    announces, finishes, queries, replies, subscribes, events, acks, errors,
    broadcasts, drop_notes, data_packets, route_updates,
)

_PACKET_DECODERS = {
    TYPE_DATA: DataPacket.decode,
    TYPE_BROADCAST: BroadcastPacket.decode,
    TYPE_ROUTE_UPDATE: RouteUpdatePacket.decode,
    TYPE_DROP_NOTIFICATION: DropNotificationPacket.decode,
}


def decode_any(body):
    """Decode a control or packet-plane body, dispatching on its type."""
    return _PACKET_DECODERS.get(control_type(body), decode_control)(body)


#: Both messages that carry a quantized weight and demand.
QUANTIZED = [
    lambda **kw: FlowAnnounce(flow_id=1, src=0, dst=1, **kw),
    lambda **kw: BroadcastPacket(EVENT_DEMAND_UPDATE, src=0, dst=1, flow_id=1, **kw),
]
QUANTIZED_IDS = ["ann", "bc"]


class TestRoundTrip:
    @given(message=messages)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_identity(self, message):
        body = message.encode()
        assert decode_any(body) == message
        # Dispatch agrees with the dedicated decoder.
        assert type(message).decode(body) == message

    @given(message=messages)
    @settings(max_examples=100, deadline=None)
    def test_framing_round_trip(self, message):
        frame = encode_frame(message.encode())
        bodies, rest = split_frames(frame)
        assert rest == b""
        assert [decode_any(b) for b in bodies] == [message]

    @given(batch=st.lists(messages, min_size=1, max_size=6), split=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_frames_reassembles_any_chunking(self, batch, split):
        stream = b"".join(encode_frame(m.encode()) for m in batch)
        cut = split.draw(st.integers(min_value=0, max_value=len(stream)))
        bodies, rest = split_frames(stream[:cut])
        bodies2, rest2 = split_frames(rest + stream[cut:])
        assert rest2 == b""
        assert [decode_any(b) for b in bodies + bodies2] == batch

    def test_reply_rate_is_full_float64(self):
        rate = 1.0e10 / 3.0  # not representable in any quantized encoding
        reply = AllocReply(flow_id=1, known=True, rate_bps=rate, bottleneck_link=7)
        assert decode_control(reply.encode()).rate_bps == rate

    def test_snapshot_payload_is_canonical_json(self):
        event = SnapshotEvent(seq=3, payload={"b": 1, "a": 2})
        body = event.encode()
        blob = body[10:-2]
        assert blob == json.dumps({"a": 2, "b": 1}, separators=(",", ":")).encode()


class TestRejection:
    @given(message=messages, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_bodies_rejected(self, message, data):
        body = message.encode()
        cut = data.draw(st.integers(min_value=1, max_value=len(body) - 1))
        with pytest.raises(WireFormatError):
            decode_any(body[:cut])

    @given(message=messages, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_rejected(self, message, data):
        body = bytearray(message.encode())
        index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        body[index] ^= 1 << bit
        try:
            decoded = decode_any(bytes(body))
        except WireFormatError:
            return  # rejected: the common, desired outcome
        # The Internet checksum admits rare aliases (e.g. a flip inside
        # the checksum field compensated by its ones'-complement rules);
        # any accepted mutant must still not impersonate the original.
        assert decoded != message

    def test_empty_body_rejected(self):
        with pytest.raises(WireFormatError):
            decode_control(b"")

    def test_unknown_type_rejected(self):
        with pytest.raises(WireFormatError):
            decode_control(bytes([0xF0, 0, 0, 0]))

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireFormatError):
            encode_frame(b"\x00" * (MAX_FRAME_SIZE + 1))

    def test_corrupt_length_prefix_rejected(self):
        prefix = (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(WireFormatError):
            split_frames(prefix + b"\x00" * 8)

    def test_announce_weight_out_of_range(self):
        with pytest.raises(WireFormatError):
            FlowAnnounce(flow_id=1, src=0, dst=1, weight=0.001).encode()

    def test_announce_demand_out_of_range(self):
        with pytest.raises(WireFormatError):
            FlowAnnounce(flow_id=1, src=0, dst=1, demand_bps=1e30).encode()

    @pytest.mark.parametrize("make", QUANTIZED, ids=QUANTIZED_IDS)
    @pytest.mark.parametrize(
        "value",
        [{"weight": math.inf}, {"weight": math.nan}, {"demand_bps": -1.0},
         {"demand_bps": math.nan}],
        ids=["weight-inf", "weight-nan", "demand-neg", "demand-nan"],
    )
    def test_unencodable_value_refused(self, make, value):
        with pytest.raises(WireFormatError):
            make(**value).encode()

    @pytest.mark.parametrize("make", QUANTIZED, ids=QUANTIZED_IDS)
    @pytest.mark.parametrize("demand_bps", [0.0, 5.0, 0.3e6], ids=["0", "5", "3e5"])
    def test_sub_mbps_demand_rounds_up_to_wire_floor(self, make, demand_bps):
        # A zero-Mbps encoding would decode into a spec no allocator
        # accepts; tiny demands ride the 1 Mbps floor instead.
        message = make(demand_bps=demand_bps)
        assert type(message).decode(message.encode()).demand_bps == 1e6

    @pytest.mark.parametrize(
        "message, name",
        [
            (ControlAck(flow_id=2**32), "CONTROL_ACK"),
            (AllocReply(flow_id=1, known=True, bottleneck_link=2**31), "ALLOC_REPLY"),
            (FlowAnnounce(flow_id=1, src=0, dst=1, priority=256), "FLOW_ANNOUNCE"),
            (BroadcastPacket(EVENT_FLOW_START, src=-1, dst=1, flow_id=1), "broadcast"),
            (DropNotificationPacket(dropped_at=0, source=2**16, seq=0), "drop"),
            (SnapshotEvent(seq=-1, payload={}), "SNAPSHOT_EVENT"),
            (DataPacket(1, 0, 1, 0, (), 0, bytes(0x10000)), "data packet"),
            (RouteUpdatePacket(((1, 0x100),)), "route-update"),
        ],
        ids=["ack", "reply", "announce", "broadcast", "drop", "snapshot", "data",
             "route-update"],
    )
    def test_field_out_of_range_names_the_message(self, message, name):
        with pytest.raises(WireFormatError, match=name) as refused:
            message.encode()
        # The value, not the message: a data packet's repr runs to 64 KiB.
        assert len(str(refused.value)) < 200

    @given(message=messages)
    @settings(max_examples=50, deadline=None)
    def test_type_nibble_readable_without_verification(self, message):
        body = message.encode()
        assert control_type(body) == body[0] >> 4
