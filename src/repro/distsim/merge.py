"""Merging shard results back into serial-equivalent aggregates.

The sharded engine proves its correctness by *byte-identity*: merging the
K shards' flow states, port statistics and telemetry snapshots must yield
exactly what the serial engine produces for the same seeds.  The merge
rules below lean on three structural facts:

* :class:`~repro.sim.flows.SimFlow` fields split cleanly into sender-side
  (written only at ``flow.src``'s shard) and receiver-side (written only at
  ``flow.dst``'s shard), so a merged flow is the field-wise union of the
  two owning replicas;
* every output port lives in exactly one shard (the one owning its sending
  node), so port statistics concatenate in global link order;
* telemetry counters and histogram buckets are *sums of increments*, each
  increment attributed to exactly one owned node or port, so
  :func:`repro.telemetry.merge_snapshots` reassembles the serial totals.

Two quantities are executor-dependent by construction and excluded from
the canonical digests: ``events_processed`` (per-shard epoch ticks and
boundary hand-off events change scheduler accounting without changing any
simulated outcome) and wall-clock measurements (``wallclock_s``,
``recompute_overheads``).  Gauges are last-writer-wins point-in-time
values; the merge keeps a gauge when every shard that set it agrees (the
common case — they are deterministic replicas) and takes the maximum
otherwise (``controller.table_flows``, whose serial "last writer" is an
arbitrary controller).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.flows import SimFlow
from ..sim.metrics import LatencyReservoir, SimMetrics
from ..telemetry.registry import merge_snapshots
from ..workloads.generator import FlowArrival

#: SimFlow fields written only by the sender-side stack (``flow.src``).
#: ``total_segments`` is sender-side: the reliable transport writes it at
#: ``start_flow`` (the receiver derives its own count locally).
SENDER_FIELDS = ("bytes_sent", "next_seq", "sender_done_ns", "total_segments")

#: SimFlow fields written only by the receiver-side stack (``flow.dst``).
RECEIVER_FIELDS = (
    "bytes_received",
    "completed_ns",
    "expected_seq",
    "reorder_buffer",
    "max_reorder_buffer",
    "received_seqs",
)

#: Gauges whose merged value is executor-dependent (see module docstring);
#: :func:`comparable_snapshot` drops them before equality checks.
EXECUTOR_DEPENDENT_GAUGES = ("sim.events_processed", "controller.table_flows")


def sender_state(flow: SimFlow) -> Tuple:
    """The sender-side field values of one shard's flow replica."""
    return tuple(getattr(flow, name) for name in SENDER_FIELDS)


def receiver_state(flow: SimFlow) -> Tuple:
    """The receiver-side field values of one shard's flow replica."""
    return tuple(getattr(flow, name) for name in RECEIVER_FIELDS)


def merge_flows(
    trace: Sequence[FlowArrival],
    sender_states: Dict[int, Tuple],
    receiver_states: Dict[int, Tuple],
) -> List[SimFlow]:
    """Rebuild the serial flow list from per-shard sender/receiver halves.

    Order matches the serial engine exactly: one flow per trace entry, in
    trace order.
    """
    flows: List[SimFlow] = []
    for arrival in trace:
        flow = SimFlow(arrival)
        for name, value in zip(SENDER_FIELDS, sender_states[arrival.flow_id]):
            setattr(flow, name, value)
        for name, value in zip(RECEIVER_FIELDS, receiver_states[arrival.flow_id]):
            setattr(flow, name, value)
        flows.append(flow)
    return flows


def merge_port_stats(
    topology, per_shard_ports: Sequence[Dict[Tuple[int, int], Tuple[int, int, int, int]]]
) -> Tuple[List[int], int, int, int]:
    """Merge per-shard port statistics in global link order.

    Each shard reports ``{(src, dst): (bytes_sent, max_occupancy, drops,
    wire_losses)}`` for the ports it owns; exactly one shard owns each
    link.  Returns ``(max_occupancies, total_bytes, total_drops,
    total_wire_losses)`` with the occupancy list in ``topology.links``
    order — the same order the serial network reports.
    """
    combined: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
    for ports in per_shard_ports:
        combined.update(ports)
    max_occupancies: List[int] = []
    total_bytes = 0
    total_drops = 0
    total_losses = 0
    for link in topology.links:
        stats = combined.get((link.src, link.dst))
        if stats is None:
            continue
        bytes_sent, max_occ, drops, losses = stats
        max_occupancies.append(max_occ)
        total_bytes += bytes_sent
        total_drops += drops
        total_losses += losses
    return max_occupancies, total_bytes, total_drops, total_losses


def merge_latency(
    reservoirs: Sequence[Dict[str, object]], capacity: int = 8192
) -> LatencyReservoir:
    """Merge per-shard latency reservoirs.

    The exact aggregates (count, total, max) merge exactly; the sample list
    is the shard-order concatenation truncated to capacity, so percentile
    *estimates* match the serial run whenever the total count fits the
    reservoir (every latency was retained on both sides — same multiset),
    and remain unbiased-ish estimates beyond that.
    """
    merged = LatencyReservoir(capacity=capacity)
    samples: List[int] = []
    for entry in reservoirs:
        merged.count += entry["count"]
        merged.total_ns += entry["total_ns"]
        merged.max_ns = max(merged.max_ns, entry["max_ns"])
        samples.extend(entry["samples"])
    merged._samples = samples[:capacity]
    return merged


def merge_recompute(
    per_shard: Sequence[Dict[int, list]],
) -> list:
    """Flatten per-node recompute stats in global node order.

    Mirrors ``PerNodeControlPlane.recompute_stats`` on the serial engine,
    which extends per-controller lists in ascending node order.
    """
    by_node: Dict[int, list] = {}
    for shard_stats in per_shard:
        by_node.update(shard_stats)
    stats: list = []
    for node in sorted(by_node):
        stats.extend(by_node[node])
    return stats


def merge_telemetry_snapshots(snapshots: Sequence[Optional[dict]]) -> Optional[dict]:
    """Merge shard telemetry snapshots plus the coordinator's finalize pass.

    Counters and histograms are sums of per-shard increments and go through
    :func:`repro.telemetry.merge_snapshots`.  Gauges are not additive: each
    is kept when all writers agree (deterministic replicas, e.g. the
    per-node controllers' ``controller.table_flows``) and collapsed to the
    maximum otherwise.
    """
    present = [s for s in snapshots if s]
    if not present:
        return None
    stripped = [
        {k: v for k, v in snap.items() if k != "gauges"} for snap in present
    ]
    merged = merge_snapshots(stripped)
    gauges: Dict[str, List[float]] = {}
    for snap in present:
        for name, value in snap.get("gauges", {}).items():
            gauges.setdefault(name, []).append(value)
    merged["gauges"] = {
        name: (values[0] if all(v == values[0] for v in values) else max(values))
        for name, values in sorted(gauges.items())
    }
    return merged


# ----------------------------------------------------------------------
# Canonical digests (what "byte-identical" means, precisely)
# ----------------------------------------------------------------------
def canonical_flow(flow: SimFlow) -> dict:
    """All simulation-semantic fields of one flow, JSON-ready."""
    return {
        "flow_id": flow.flow_id,
        "src": flow.src,
        "dst": flow.dst,
        "size_bytes": flow.size_bytes,
        "start_ns": flow.start_ns,
        "bytes_sent": flow.bytes_sent,
        "bytes_received": flow.bytes_received,
        "next_seq": flow.next_seq,
        "sender_done_ns": flow.sender_done_ns,
        "completed_ns": flow.completed_ns,
        "expected_seq": flow.expected_seq,
        "reorder_buffer": sorted(flow.reorder_buffer),
        "max_reorder_buffer": flow.max_reorder_buffer,
        "received_seqs": (
            None if flow.received_seqs is None else sorted(flow.received_seqs)
        ),
        "total_segments": flow.total_segments,
    }


def canonical_metrics(metrics: SimMetrics) -> dict:
    """Every deterministic quantity of a run, for exact-equality checks.

    Excludes only the executor-dependent scheduler accounting
    (``events_processed``), wall-clock measurements and the (sampling-order
    dependent) reservoir sample list; the reservoir's exact aggregates are
    kept.
    """
    return {
        "duration_ns": metrics.duration_ns,
        "flows": [canonical_flow(f) for f in metrics.flows],
        "max_queue_occupancy_bytes": list(metrics.max_queue_occupancy_bytes),
        "broadcast_bytes": metrics.broadcast_bytes,
        "broadcast_packets": metrics.broadcast_packets,
        "ack_bytes": metrics.ack_bytes,
        "data_bytes_on_wire": metrics.data_bytes_on_wire,
        "total_bytes_on_wire": metrics.total_bytes_on_wire,
        "drops": metrics.drops,
        "wire_losses": metrics.wire_losses,
        "epochs_recomputed": metrics.epochs_recomputed,
        "epochs_skipped": metrics.epochs_skipped,
        "packet_latency": {
            "count": metrics.packet_latency.count,
            "total_ns": metrics.packet_latency.total_ns,
            "max_ns": metrics.packet_latency.max_ns,
        },
    }


def _canonical_histogram(hist: dict) -> dict:
    """Round a histogram's float aggregates to reassociation precision.

    Bucket counts — the histogram proper — are integral and compare
    exactly.  The ``sum`` aggregate of a float-valued histogram (e.g.
    ``link.utilization``) is merged by adding K per-shard partial sums,
    which regroups the serial run's addition order; IEEE addition is not
    associative, so the merged sum can differ in the last ulp.  Ten
    significant digits is far below any quantity the analyses read and far
    above reassociation noise.
    """
    out = dict(hist)
    for key in ("sum", "min", "max"):
        value = out.get(key)
        if isinstance(value, float):
            out[key] = float(f"{value:.10g}")
    return out


def comparable_snapshot(snapshot: Optional[dict]) -> Optional[dict]:
    """Project a telemetry snapshot onto its executor-independent parts.

    Counters and histogram bucket counts compare exactly (float histogram
    aggregates at reassociation precision — see
    :func:`_canonical_histogram`).  Time series are per-session recordings
    that :func:`repro.telemetry.merge_snapshots` does not merge, and two
    gauges are last-writer/scheduler artifacts (see
    :data:`EXECUTOR_DEPENDENT_GAUGES`); those are dropped.
    """
    if snapshot is None:
        return None
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": {
            name: value
            for name, value in snapshot.get("gauges", {}).items()
            if name not in EXECUTOR_DEPENDENT_GAUGES
        },
        "histograms": {
            name: _canonical_histogram(hist)
            for name, hist in snapshot.get("histograms", {}).items()
        },
    }
