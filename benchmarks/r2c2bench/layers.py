"""The per-layer metric table and how each entry is read off a traced run.

:data:`PER_LAYER` is the single list of per-layer metrics (``BENCHMARK.json``
repeats it; ``selftest.py`` keeps the two equal).  ``moves`` names the
end-to-end metric and workload each entry is expected to move — written
down before measuring, see README.md.

Every traced run reports every entry.  A layer the workload never enters
reads 0 with ``n=0`` (for self times and counts that is the measurement: the
workload bypasses the layer).  A value whose boundary could not be wrapped
reads ``None`` here and is counted in ``bench.missing_boundaries``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Tracer


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str  # micro | span | count | stat | derived
    moves: str


def _m(name, unit, kind, moves, better="lower") -> LayerMetric:
    return LayerMetric(name, unit, better, kind, moves)


_RACK = "op_p50_ms + op2_p50_ms @ rack64_shared (largest share), op_p50_ms @ rack512_pernode"
_EPOCH = "op_p50_ms, op_slow_ms, ops_per_s, setup_s @ epoch_churn512"
_VOLATILE = "op_p50_ms, ops_per_s @ daemon_volatile512"
_DURABLE = "op_p50_ms, op_slow_ms, ops_per_s, setup_s @ daemon_durable512; none @ daemon_volatile512"
_QUERY = "op2_p50_ms, op2_slow_ms @ daemon_*"

PER_LAYER: Tuple[LayerMetric, ...] = (
    _m("sim.engine.noop_event_ns", "ns", "micro", _RACK),
    _m("sim.engine.batch_action_ns", "ns", "micro", "op_p50_ms @ rack512_pernode only"),
    _m("sim.engine.events", "count", "count", "none (work done; drops if events are fused)"),
    _m("sim.engine.self_s", "s", "span", _RACK),
    _m("sim.network.port_send_ns", "ns", "micro", _RACK),
    _m("sim.network.port_send_batched_ns", "ns", "micro", "op_p50_ms @ rack512_pernode only"),
    _m("sim.network.packet_hops", "count", "count", "none (must repeat exactly)"),
    _m("sim.network.ns_per_packet_hop", "ns", "derived", _RACK + " — ROADMAP's headline rung"),
    _m("sim.network.self_s", "s", "span", _RACK),
    _m("sim.network.drops", "count", "stat", "none (simulated statistic)"),
    _m("sim.network.queue_p99_kb", "kB", "stat", "none (simulated statistic)"),
    _m("sim.stacks.r2c2.self_s", "s", "span", "op_p50_ms @ rack64_shared, rack512_pernode"),
    _m("sim.stacks.r2c2.deliver_calls", "count", "count", "none (must repeat exactly)"),
    _m("sim.stacks.r2c2.start_flow_calls", "count", "count", "none (must repeat exactly)"),
    _m("sim.stacks.tcp.self_s", "s", "span", "op2_p50_ms @ rack64_shared, rack512_pernode"),
    _m("broadcast.fib_build_s", "s", "span",
       "op_p50_ms, op_slow_ms @ rack512_pernode (about half of it); <= 2% @ rack64_shared"),
    _m("broadcast.fib_entries", "count", "stat", "none (4x4x4 FIB of the micro)"),
    _m("broadcast.next_hops_ns", "ns", "micro", "op_p50_ms @ rack512_pernode"),
    _m("broadcast.wire_packets", "count", "stat", "none (simulated statistic, Fig. 9)"),
    _m("broadcast.capacity_frac", "fraction", "stat", "none (simulated statistic, Fig. 9)"),
    _m("broadcast.self_s", "s", "span", "op_p50_ms @ rack512_pernode"),
    _m("congestion.flowstate.table_apply_us", "us", "micro",
       "op_p50_ms @ rack512_pernode (each announcement lands in 512 tables)"),
    _m("congestion.controller.recompute_idle_us_p50", "us", "span", "none (idle epochs are ~free)"),
    _m("congestion.controller.recompute_demand_ms_p50", "ms", "span",
       "op_p50_ms, ops_per_s @ epoch_churn512"),
    _m("congestion.controller.recompute_member_ms_p50", "ms", "span",
       "op_slow_ms, op2_p50_ms, op2_slow_ms @ epoch_churn512"),
    _m("congestion.controller.flow_start_ms_p50", "ms", "span",
       "op_slow_ms, op2_*, ops_per_s, setup_s @ epoch_churn512 (the per-arrival fill)"),
    _m("congestion.controller.flow_finish_us_p50", "us", "span", "none (table removal only)"),
    _m("congestion.controller.epochs_recomputed", "count", "stat", "none (must repeat exactly)"),
    _m("congestion.controller.epochs_skipped", "count", "stat", "none (must repeat exactly)"),
    _m("congestion.controller.self_s", "s", "span", _EPOCH + "; < 4% of op_p50_ms @ rack64_shared"),
    _m("congestion.waterfill.fill_ms_p50", "ms", "span",
       _EPOCH + "; op_slow_ms @ daemon_volatile512 (tail there is the fallback full recompute)"),
    _m("congestion.waterfill.calls", "count", "count", "none (must repeat exactly)"),
    _m("congestion.waterfill.calls_per_epoch", "ratio", "derived",
       "waste ratio, > 1 today (one extra fill per arrival): op_slow_ms, op2_* @ epoch_churn512"),
    _m("congestion.waterfill.self_s", "s", "span", _EPOCH),
    _m("congestion.linkweights.weights_cold_us.rps", "us", "micro",
       "op_slow_ms, setup_s @ epoch_churn512"),
    _m("congestion.linkweights.weights_cold_us.ecmp", "us", "micro", "setup_s @ daemon_*"),
    _m("congestion.linkweights.weights_cold_us.wlb", "us", "micro", "none (no workload routes wlb)"),
    _m("congestion.linkweights.weights_cold_us.vlb", "us", "micro", "none (no workload routes vlb)"),
    _m("congestion.linkweights.level_matrix_ms", "ms", "micro", "op_slow_ms, op2_* @ epoch_churn512"),
    _m("congestion.linkweights.cache_rows", "count", "stat", "none"),
    _m("congestion.incremental.add_ms_p50", "ms", "span", _VOLATILE),
    _m("congestion.incremental.remove_ms_p50", "ms", "span", _VOLATILE),
    _m("congestion.incremental.demand_ms_p50", "ms", "span", _VOLATILE),
    _m("congestion.incremental.incremental_ratio", "fraction", "stat",
       "op_slow_ms @ daemon_volatile512", better="higher"),
    _m("congestion.incremental.fallback_recomputes", "count", "stat",
       "op_slow_ms @ daemon_volatile512"),
    _m("congestion.incremental.scratch_ms", "ms", "span",
       "op_slow_ms @ daemon_volatile512 (cost of one fallback)"),
    _m("congestion.incremental.rps_add_ms_p50", "ms", "span",
       "none until a workload sprays (no-locality regime, about scratch_ms)"),
    _m("service.state.announce_ms_p50", "ms", "span", "op_p50_ms @ daemon_*"),
    _m("service.state.finish_ms_p50", "ms", "span", "op_p50_ms @ daemon_*"),
    _m("service.state.query_us_p50", "us", "span", _QUERY),
    _m("service.state.save_snapshot_ms_p50", "ms", "span", _DURABLE),
    _m("service.state.snapshot_bytes", "B", "stat", _DURABLE),
    _m("service.state.restore_ms", "ms", "span", "none (recorded for the hardening item)"),
    _m("service.daemon.rpc_overhead_us_p50", "us", "derived", _QUERY),
    _m("service.daemon.ready_s", "s", "span", "setup_s @ daemon_*"),
    _m("service.daemon.rss_mb", "MB", "stat", "peak_rss_mb @ daemon_*"),
    _m("wire.control.announce_encode_ns", "ns", "micro", "op_p50_ms @ daemon_* (small)"),
    _m("wire.control.announce_decode_ns", "ns", "micro", "op_p50_ms @ daemon_* (small)"),
    _m("wire.control.reply_encode_ns", "ns", "micro", _QUERY + " (us against a 120 us RPC)"),
    _m("wire.control.reply_decode_ns", "ns", "micro", _QUERY + " (us against a 120 us RPC)"),
    _m("wire.control.frame_split_ns", "ns", "micro", _QUERY + " (small)"),
    _m("workloads.trace_gen_s", "s", "span", "setup_s @ rack*"),
    _m("topology.build_s", "s", "span", "setup_s @ rack*"),
    _m("bench.trace_overhead_frac", "fraction", "derived", "none (trust in the numbers above)"),
    _m("bench.unattributed_frac", "fraction", "derived", "none (trust in the numbers above)"),
    _m("bench.calib_ms", "ms", "micro", "none (noisy-neighbour detector)"),
    _m("bench.missing_boundaries", "count", "count", "none (wrapper table vs. the code)"),
)

Measured = Tuple[Optional[float], int]

_LAYERS_WITH_SELF_TIME = ("sim.engine", "sim.network", "sim.stacks.r2c2", "sim.stacks.tcp",
                          "broadcast", "congestion.controller", "congestion.waterfill")

#: metric -> the boundaries whose calls it counts
_CALL_COUNTS = {
    "sim.network.packet_hops": ("OutputPort.send", "OutputPort.send_batched"),
    "sim.stacks.r2c2.deliver_calls": ("R2C2Stack.deliver",),
    "sim.stacks.r2c2.start_flow_calls": ("R2C2Stack.start_flow",),
    "congestion.waterfill.calls": ("waterfill",),
}

_WRITES = ("new", "reannounce", "finish")
#: metric -> (per-call boundary, tag filter, seconds-to-unit factor): the
#: median duration of that boundary's spans recorded under those tags.  Tags
#: are set by the workload loops: the epoch's batch kind, the replayed op.
_SPAN_MEDIANS = {
    "broadcast.fib_build_s": ("BroadcastFib.__init__", None, 1.0),
    "congestion.controller.recompute_idle_us_p50": ("RateController.recompute", "idle", 1e6),
    "congestion.controller.recompute_demand_ms_p50": ("RateController.recompute", "demand", 1e3),
    "congestion.controller.recompute_member_ms_p50": ("RateController.recompute", "member", 1e3),
    "congestion.controller.flow_start_ms_p50": ("RateController.on_flow_started", "member", 1e3),
    "congestion.controller.flow_finish_us_p50": ("RateController.on_flow_finished", "member", 1e6),
    "congestion.waterfill.fill_ms_p50": ("waterfill", None, 1e3),
    "congestion.incremental.add_ms_p50": ("IncrementalWaterfill.add_flow", "new", 1e3),
    "congestion.incremental.demand_ms_p50": ("IncrementalWaterfill.add_flow", "reannounce", 1e3),
    "congestion.incremental.remove_ms_p50": ("IncrementalWaterfill.remove_flow", "finish", 1e3),
    "congestion.incremental.rps_add_ms_p50": ("IncrementalWaterfill.add_flow", "rps", 1e3),
    "service.state.announce_ms_p50": ("ServiceState.announce", ("new", "reannounce"), 1e3),
    "service.state.finish_ms_p50": ("ServiceState.finish", "finish", 1e3),
    "service.state.query_us_p50": ("ServiceState.query", "query", 1e6),
    "service.state.save_snapshot_ms_p50": ("ServiceState.save_snapshot", _WRITES, 1e3),
    "service.state.restore_ms": ("ServiceState.restore", None, 1e3),
}


def _measured(value: Optional[float], n: int = 1) -> Measured:
    return (None, 0) if value is None else (float(value), n)


def _median(samples: Optional[Sequence[float]], factor: float) -> Measured:
    """``None`` when the boundary is unresolved, 0 with n=0 when it was
    never called."""
    if samples is None:
        return None, 0
    if not samples:
        return 0.0, 0
    return statistics.median(samples) * factor, len(samples)


def from_tracer(tracer: Tracer, epochs: int) -> Dict[str, Measured]:
    """Everything that is read straight off the span records."""
    out: Dict[str, Measured] = {
        f"{layer}.self_s": _measured(tracer.layer_self_s(layer))
        for layer in _LAYERS_WITH_SELF_TIME
    }
    for metric, boundaries in _CALL_COUNTS.items():
        out[metric] = _measured(tracer.count(*boundaries))
    for metric, (boundary, tag, factor) in _SPAN_MEDIANS.items():
        out[metric] = _median(tracer.durations_s(boundary, tag=tag), factor)
    fills = tracer.count("waterfill")
    if fills is None:
        out["congestion.waterfill.calls_per_epoch"] = (None, 0)
    else:
        out["congestion.waterfill.calls_per_epoch"] = (
            (fills / epochs, epochs) if epochs else (0.0, 0))
    total, unattributed = tracer.root_split_s()
    out["bench.unattributed_frac"] = (unattributed / total, 1) if total else (0.0, 0)
    out["bench.missing_boundaries"] = (float(len(tracer.missing)), 1)
    return out


def complete(values: Dict[str, Measured]) -> Dict[str, Measured]:
    """Order by :data:`PER_LAYER`; an entry nobody measured reads 0, n=0."""
    unknown = set(values) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"not in PER_LAYER: {sorted(unknown)}")
    return {metric.name: values.get(metric.name, (0.0, 0)) for metric in PER_LAYER}


def missing(values: Dict[str, Measured]) -> List[str]:
    return [name for name, (value, _) in values.items() if value is None]
