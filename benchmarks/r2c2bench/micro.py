"""Isolated per-layer micro-measurements.

Each function builds one layer's public object alone, drives a fixed loop
and returns ``(value, n)`` in the unit its metric name carries.  They do not
depend on the workload, so every traced run takes them the same way; the
whole set costs a few seconds.  Sizes are fixed (not seeded): a micro
compares two commits on the identical loop.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, Tuple

from repro.broadcast.fib import BroadcastFib
from repro.congestion.flowstate import FlowSpec, FlowTable
from repro.congestion.linkweights import WeightProvider
from repro.sim.engine import EventLoop
from repro.sim.network import FifoQueue, OutputPort
from repro.sim.packets import KIND_DATA, SimPacket, data_packet_size
from repro.topology import TorusTopology
from repro.wire import control as ctl

Measured = Tuple[float, int]


def _noop() -> None:
    pass


def _per_item_ns(fn: Callable[[], None], items: int) -> Measured:
    started = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - started) / items, items


def noop_event_ns(n: int = 100_000) -> Measured:
    """Schedule + dispatch of one no-op event (heap push, pop, call)."""
    loop = EventLoop()

    def body() -> None:
        for at_ns in range(n):
            loop.schedule_at(at_ns, _noop)
        loop.run_batch()

    return _per_item_ns(body, n)


def batch_action_ns(n: int = 100_000, fan_out: int = 6) -> Measured:
    """One action of a ``schedule_batch`` group (the broadcast fan-out path)."""
    loop = EventLoop()
    actions = [_noop] * fan_out

    def body() -> None:
        for delay_ns in range(n // fan_out):
            loop.schedule_batch(delay_ns, actions)
        loop.run_batch()

    return _per_item_ns(body, (n // fan_out) * fan_out)


def _mtu_packet(seq: int) -> SimPacket:
    return SimPacket(KIND_DATA, 0, 0, 1, seq, data_packet_size(1500), path=(0, 1), payload=1500)


def _port(loop: EventLoop, sink: list) -> OutputPort:
    return OutputPort(loop, 0, 1, 10e9, 100, FifoQueue(), sink.append)


def port_send_ns(n: int = 50_000) -> Measured:
    """One MTU packet through a lone port: enqueue, serialize, propagate."""
    loop, sink = EventLoop(), []
    port = _port(loop, sink)
    packets = [_mtu_packet(i) for i in range(n)]

    def body() -> None:
        for packet in packets:
            port.send(packet)
        loop.run_batch()

    measured = _per_item_ns(body, n)
    if len(sink) != n:
        raise RuntimeError(f"port delivered {len(sink)} of {n} packets")
    return measured


def port_send_batched_ns(n: int = 48_000, fan_out: int = 6) -> Measured:
    """One copy of a fan-out: ``send_batched`` on idle ports whose finish
    events share one ``schedule_batch`` entry, as ``RackNetwork`` does."""
    loop, sink = EventLoop(), []
    ports = [_port(loop, sink) for _ in range(fan_out)]
    rounds = n // fan_out
    packets = [_mtu_packet(i) for i in range(rounds * fan_out)]

    def body() -> None:
        index = 0
        for _ in range(rounds):
            pending: list = []
            for port in ports:
                port.send_batched(packets[index], pending)
                index += 1
            loop.schedule_batch(pending[0][0], [fire for _, fire in pending])
            loop.run_batch()

    measured = _per_item_ns(body, rounds * fan_out)
    if len(sink) != rounds * fan_out:
        raise RuntimeError(f"ports delivered {len(sink)} of {rounds * fan_out} packets")
    return measured


def broadcast_fib(n: int = 200_000) -> Dict[str, Measured]:
    """FIB lookups on a 4x4x4 rack, and that FIB's total entry count."""
    topology = TorusTopology((4, 4, 4))
    fib = BroadcastFib(topology, n_trees=4, seed=0)
    rng = random.Random(0)
    keys = [(rng.randrange(64), rng.randrange(64), rng.randrange(4)) for _ in range(1024)]

    def body() -> None:
        next_hops = fib.next_hops
        for i in range(n):
            node, src, tree = keys[i & 1023]
            next_hops(node, src, tree)

    entries = sum(fib.fib_entry_count(node) for node in topology.nodes())
    return {"broadcast.next_hops_ns": _per_item_ns(body, n),
            "broadcast.fib_entries": (float(entries), 1)}


def table_apply_us(n: int = 20_000) -> Measured:
    """One ``FlowTable`` mutation (add / update_demand / remove) including
    the content-fingerprint upkeep, plus one ``content_key`` read each."""
    specs = [FlowSpec(i, i % 64, (i + 1) % 64, "rps") for i in range(n)]
    table = FlowTable()

    def body() -> None:
        for spec in specs:
            table.add(spec)
            table.content_key
        for spec in specs:
            table.update_demand(spec.flow_id, 1e9)
            table.content_key
        for spec in specs:
            table.remove(spec.flow_id)
            table.content_key

    value_ns, items = _per_item_ns(body, 3 * n)
    return value_ns / 1e3, items


def linkweights(pairs: int = 40, rows: int = 512) -> Dict[str, Measured]:
    """Cold link-weight rows per protocol on 8x8x8 (median over *pairs*
    distinct endpoint pairs, so a protocol's one-off set-up drops out), and
    one ``level_matrix`` assembly over *rows* warm rows."""
    topology = TorusTopology((8, 8, 8))
    rng = random.Random(0)

    def spec(flow_id: int, protocol: str) -> FlowSpec:
        src = rng.randrange(topology.n_nodes)
        dst = (src + 1 + rng.randrange(topology.n_nodes - 1)) % topology.n_nodes
        return FlowSpec(flow_id, src, dst, protocol)

    out: Dict[str, Measured] = {}
    for protocol in ("rps", "ecmp", "wlb", "vlb"):
        provider = WeightProvider(topology)
        walls = []
        for flow_id in range(pairs):
            flow = spec(flow_id, protocol)
            started = time.perf_counter_ns()
            provider.weights_for(flow)
            walls.append(time.perf_counter_ns() - started)
        out[f"congestion.linkweights.weights_cold_us.{protocol}"] = (
            statistics.median(walls) / 1e3, pairs)
    provider = WeightProvider(topology)
    flows = [spec(flow_id, "rps") for flow_id in range(rows)]
    for flow in flows:
        provider.weights_for(flow)
    walls = []
    for shift in range(1, 8):
        # a rotated flow order is a new cache key, so every call assembles
        rotated = flows[shift:] + flows[:shift]
        started = time.perf_counter_ns()
        provider.level_matrix(rotated)
        walls.append(time.perf_counter_ns() - started)
    out["congestion.linkweights.level_matrix_ms"] = (statistics.median(walls) / 1e6, len(walls))
    out["congestion.linkweights.cache_rows"] = (float(provider.cache_size()), 1)
    return out


def wire_control(n: int = 20_000) -> Dict[str, Measured]:
    announce = ctl.FlowAnnounce(flow_id=7, src=3, dst=400, protocol_id=1, demand_bps=2.5e9)
    announce_body = announce.encode()
    reply = ctl.AllocReply(flow_id=7, known=True, rate_bps=1.234e9, bottleneck_link=77)
    reply_body = reply.encode()
    frames = b"".join(ctl.encode_frame(reply_body) for _ in range(16))

    def loop_of(fn: Callable[[], object], items: int = 1) -> Measured:
        def body() -> None:
            for _ in range(n // items):
                fn()
        return _per_item_ns(body, (n // items) * items)

    def framed() -> None:
        bodies, tail = ctl.split_frames(frames)
        if len(bodies) != 16 or tail:
            raise RuntimeError("split_frames lost a frame")

    return {
        "wire.control.announce_encode_ns": loop_of(announce.encode),
        "wire.control.announce_decode_ns": loop_of(lambda: ctl.decode_control(announce_body)),
        "wire.control.reply_encode_ns": loop_of(reply.encode),
        "wire.control.reply_decode_ns": loop_of(lambda: ctl.decode_control(reply_body)),
        "wire.control.frame_split_ns": loop_of(framed, items=16),
    }


def run_all() -> Dict[str, Measured]:
    out: Dict[str, Measured] = {
        "sim.engine.noop_event_ns": noop_event_ns(),
        "sim.engine.batch_action_ns": batch_action_ns(),
        "sim.network.port_send_ns": port_send_ns(),
        "sim.network.port_send_batched_ns": port_send_batched_ns(),
        "congestion.flowstate.table_apply_us": table_apply_us(),
    }
    out.update(broadcast_fib())
    out.update(linkweights())
    out.update(wire_control())
    return out
