"""Byte pins for every R2C2 message codec and the Ethernet tunnel frame.

The round-trip properties in ``test_control_formats.py`` compare a codec
with itself, so a change that moves every encoding the same way passes
them.  These pins are the cross-commit half: the SHA-256 of the encodings
of a seeded sample of each message type.  Weights are arbitrary floats
(so the 1/16 rounding is exercised); demands are at least 1 Mbps or
infinite, the range in which every encoder has always agreed.  A
deliberate change to a layout re-pins here (``python
tests/wire/test_encoding_pin.py`` prints the current values).
"""

import hashlib
import math
import random

import pytest

from repro.wire import (
    AllocQuery,
    AllocReply,
    BroadcastPacket,
    ControlAck,
    ControlError,
    DataPacket,
    DropNotificationPacket,
    EthernetFrame,
    FlowAnnounce,
    FlowFinish,
    RouteUpdatePacket,
    SnapshotEvent,
    SnapshotSubscribe,
    MAX_HOPS,
    encode_frame,
)

SEED = 2015
SAMPLES = 200


def _weight(rng):
    return rng.uniform(1 / 16, 255 / 16)


def _demand(rng):
    roll = rng.random()
    if roll < 0.2:
        return math.inf
    if roll < 0.4:
        return rng.randint(1, 50_000) * 1e6
    return rng.uniform(1e6, 1e13)


def _text(rng):
    alphabet = "abcXYZ019 _-é漢"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))


def _bytes(rng, low, high):
    return rng.randbytes(rng.randint(low, high))


def _data_packet(rng):
    route = tuple(rng.getrandbits(3) for _ in range(rng.randint(0, MAX_HOPS)))
    return DataPacket(
        flow_id=rng.getrandbits(32),
        src=rng.getrandbits(16),
        dst=rng.getrandbits(16),
        seq=rng.getrandbits(32),
        route_ports=route,
        route_index=rng.randint(0, len(route)),
        payload=_bytes(rng, 0, 1500),
    )


def _payload(rng):
    return {
        _text(rng) or "k": rng.choice(
            [rng.randint(-1000, 1000), rng.uniform(-1e6, 1e6), _text(rng), None]
        )
        for _ in range(rng.randint(0, 6))
    }


MAKERS = {
    "FlowAnnounce": lambda rng: FlowAnnounce(
        flow_id=rng.getrandbits(32),
        src=rng.getrandbits(16),
        dst=rng.getrandbits(16),
        protocol_id=rng.getrandbits(8),
        weight=_weight(rng),
        priority=rng.getrandbits(8),
        demand_bps=_demand(rng),
    ),
    "FlowFinish": lambda rng: FlowFinish(rng.getrandbits(32)),
    "AllocQuery": lambda rng: AllocQuery(rng.getrandbits(32)),
    "AllocReply": lambda rng: AllocReply(
        flow_id=rng.getrandbits(32),
        known=rng.random() < 0.8,
        rate_bps=rng.uniform(0.0, 4e12),
        bottleneck_link=None if rng.random() < 0.3 else rng.getrandbits(31),
    ),
    "SnapshotSubscribe": lambda rng: SnapshotSubscribe(max_events=rng.getrandbits(32)),
    "SnapshotEvent": lambda rng: SnapshotEvent(seq=rng.getrandbits(32), payload=_payload(rng)),
    "ControlAck": lambda rng: ControlAck(rng.getrandbits(32), code=rng.getrandbits(8)),
    "ControlError": lambda rng: ControlError(code=rng.getrandbits(8), message=_text(rng)),
    "BroadcastPacket": lambda rng: BroadcastPacket(
        event=rng.randint(1, 4),
        src=rng.getrandbits(16),
        dst=rng.getrandbits(16),
        flow_id=rng.getrandbits(32),
        weight=_weight(rng),
        priority=rng.getrandbits(8),
        demand_bps=_demand(rng),
        tree_id=rng.getrandbits(4),
        protocol_id=rng.getrandbits(4),
    ),
    "DropNotificationPacket": lambda rng: DropNotificationPacket(
        dropped_at=rng.getrandbits(16), source=rng.getrandbits(16), seq=rng.getrandbits(32)
    ),
    "DataPacket": _data_packet,
    "RouteUpdatePacket": lambda rng: RouteUpdatePacket(
        tuple(
            (rng.getrandbits(32), rng.getrandbits(8))
            for _ in range(rng.randint(0, RouteUpdatePacket.MAX_ENTRIES))
        )
    ),
    "EthernetFrame": lambda rng: EthernetFrame(
        dst_mac=_bytes(rng, 6, 6),
        src_mac=_bytes(rng, 6, 6),
        payload=_bytes(rng, 1, 1500),
        ethertype=rng.getrandbits(16),
    ),
}

PINS = {
    "AllocQuery": "fca16a47e4f28a24d6ead19dcdb25b66894404332487c813c9328afbb92d223b",
    "AllocReply": "2c1832e0a7cf68a0053d34ad1372d37bbe4c62ff61a2d040cf584f4b80e0de35",
    "BroadcastPacket": "eecb996033890d3a41a48b0766414cd673a102c849487e490cd80e28b4016d6c",
    "ControlAck": "8f085a16a3f179b48ccb726168a40184ea581995305bf19782aaf701245d0695",
    "ControlError": "b04264ec3f2c0b0d247df3865f8e122f56b45c9184449b1a6c4bd2b853b79816",
    "DataPacket": "620202da9fa35780c6b09058312f3e92fc9da621619e446654ada8aceee98652",
    "DropNotificationPacket": "8185ef3f37db362a4a66572a13f33061d584a0499b20f5f969e51638d18829ce",
    "EthernetFrame": "789e2b2335d54e4f4a0bf0af9b81f4531257d2dea535f576ab46202f831c4713",
    "FlowAnnounce": "d6a43bbbcd25f35ef362dc73bf38051d9967a4fc59e0e247b9201d98967a5731",
    "FlowFinish": "56ba9fcc11378bef325304200b47a6bf0a62f9b09cf7687bf4f4e0dd282cfe0e",
    "RouteUpdatePacket": "541b6692d834c4731c7d1444f549f392c8b80a9d54f0b39ad4d4e1ee50b405a7",
    "SnapshotEvent": "8e38be66ec5ae952161fe1e3e5a0f5c051fc67b539effd99038d15fcf601a491",
    "SnapshotSubscribe": "9410fab0191b4b352de4670a079916693bce08e6d6a85db961e0d6c163be970f",
}


def _digest(name):
    rng = random.Random(f"{SEED}:{name}")
    digest = hashlib.sha256()
    for _ in range(SAMPLES):
        message = MAKERS[name](rng)
        body = message.encode()
        # Decoding is a left inverse at wire precision: re-encoding the
        # decoded message gives the same bytes.
        assert type(message).decode(body).encode() == body
        digest.update(encode_frame(body))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_encodings_are_pinned(name):
    assert _digest(name) == PINS[name]


if __name__ == "__main__":
    for name in sorted(PINS):
        print(f'    "{name}": "{_digest(name)}",')
