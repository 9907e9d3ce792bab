"""The conservative synchronization protocol and result assembly.

:func:`run_sharded_simulation` reproduces :func:`repro.sim.runner.
run_simulation` exactly, with the event processing spread over K shards.

Protocol (synchronous conservative windows):

1. Let ``T_min`` be the global lower bound on unexecuted virtual time: the
   minimum over every shard's next pending event and every in-flight
   boundary message's arrival time.
2. Lookahead: a cut-crossing packet emitted at ``t`` (transmission finish)
   arrives at ``t + L_link >= t + L`` where ``L`` is the minimum cut-link
   latency.  Since no shard can act before ``T_min``, no new cross-shard
   arrival can land at or before ``E = T_min + L - 1``.
3. Every shard therefore safely executes the window ``(now, E]``; windows
   are additionally capped at the serial engine's 1 ms progress-grid
   boundaries, where termination checks and link-probe samples happen
   exactly as the serial loop does them.
4. Boundary messages collected from round *r* are routed and injected at
   the start of round *r+1*, sorted by ``(arrival, emit_ns, src_shard,
   emit_idx)`` and scheduled with their cut link's delivery priority
   (:func:`repro.sim.network.link_prio`).  The event loop orders
   same-instant deliveries by link identity in *both* engines, so an
   injected arrival sorts against the destination shard's local events
   exactly as the serial propagation event would; the canonical sort
   merely keeps same-link injections FIFO and the injection order
   deterministic.

Termination replicates the serial loop decision-for-decision: at each grid
boundary, stop when every flow has completed, when no events remain
anywhere (all heaps drained and no messages in flight), or at the horizon;
``duration_ns`` is that boundary.  See DESIGN.md §6d for the determinism
argument and its boundary conditions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..sim.metrics import SimMetrics
from ..sim.runner import _PROGRESS_CHUNK_NS, SimConfig, _default_horizon, _finalize_telemetry
from ..topology.base import Topology
from ..topology.partition import Partition
from ..workloads.generator import FlowArrival
from ..obs import ObsSession
from ..telemetry.trace import merge_trace_documents
from .merge import (
    merge_flows,
    merge_latency,
    merge_port_stats,
    merge_recompute,
    merge_telemetry_snapshots,
)
from .shard import ShardSim


@dataclass
class DistSimResult:
    """A sharded run's merged results plus protocol bookkeeping."""

    metrics: SimMetrics
    #: Merged telemetry snapshot (``None`` when telemetry was off).  The
    #: serial engine mutates a caller-provided registry; shards each own a
    #: private registry, so the merged *snapshot* is the deliverable here.
    telemetry_snapshot: Optional[dict]
    shards: int
    lookahead_ns: Optional[int]
    rounds: int = 0
    boundary_messages: int = 0
    shard_sizes: Tuple[int, ...] = ()
    cut_links: int = 0
    #: Synchronization-protocol profile (rounds, window sizes, lookahead
    #: utilization, per-shard boundary traffic and executing wall time).
    #: Wall-clock quantities live here, never in :attr:`metrics` — the
    #: merged ``SimMetrics`` must stay byte-identical to the serial run's.
    sync_profile: Optional[dict] = None
    #: Merged Chrome trace document (``None`` when tracing was off).
    trace_document: Optional[dict] = None


def validate_sharded_config(config: SimConfig, telemetry_config=None) -> None:
    """Reject configurations whose shared state defeats shard isolation.

    These are structural, not incidental: the shared control plane updates
    one global table at sender-emit time (zero lookahead), PFQ's
    coordinator applies instantaneous cross-node backpressure, and the
    flight recorder is a single bounded ring whose eviction order is only
    meaningful within one event loop.  Each has an exact-per-shard or
    serial alternative, named in the error.

    Tracing *does* shard: every trace event carries simulated-time order
    metadata, and the coordinator merges per-shard recorders into a
    document whose mergeable tracks are byte-identical to a serial trace
    (see :func:`repro.telemetry.trace.merge_trace_documents`).

    Wire loss (``loss_rate > 0``) and auditing (``audit=True``) are
    simulation semantics, not execution policy, and *do* shard: loss draws
    come from per-port RNG streams keyed by link identity, and each shard
    runs its own auditor whose report the coordinator merges
    (:func:`repro.validation.auditor.merge_audit_reports`).
    """
    if config.stack == "pfq":
        raise SimulationError(
            "sharded execution does not support the pfq stack: its "
            "coordinator applies instantaneous cross-node backpressure "
            "(zero lookahead); run pfq serially"
        )
    if config.stack == "r2c2" and config.control_plane != "per_node":
        raise SimulationError(
            "sharded r2c2 requires control_plane='per_node': the shared "
            "control plane updates one rack-wide table at sender-emit time, "
            "which has zero lookahead across shards; per-node controllers "
            "are updated by actual broadcast deliveries and shard exactly"
        )
    if config.flight:
        raise SimulationError(
            "sharded execution does not support the flight recorder: its "
            "bounded ring evicts in one event loop's execution order, "
            "which K independent loops cannot reproduce; record a serial "
            "run of the same seed"
        )


def run_sharded_simulation(
    topology: Topology,
    trace: Sequence[FlowArrival],
    config: Optional[SimConfig] = None,
    shards: int = 2,
    telemetry_config=None,
    partition: Optional[Partition] = None,
    partition_strategy: str = "auto",
) -> DistSimResult:
    """Simulate *trace* on *topology* split across *shards* event loops,
    all stepped in the calling process.

    Byte-identical to :func:`repro.sim.runner.run_simulation` for the same
    config and seeds (see :func:`repro.distsim.merge.canonical_metrics`
    for the precise equality surface, and ``validate_sharded_config`` for
    the configurations where sharding is refused).

    Args:
        shards: Number of shards (K >= 1; K=1 degenerates to a serial run
            under the windowed protocol — useful for protocol tests).
        telemetry_config: Optional :class:`~repro.telemetry.
            TelemetryConfig`.  The merged metrics snapshot is returned in
            :attr:`DistSimResult.telemetry_snapshot`; with ``trace=True``
            the merged trace document (mergeable tracks only) is returned
            in :attr:`DistSimResult.trace_document`.
        partition: Pre-built :class:`Partition` (overrides *shards* /
            *partition_strategy*).
    """
    config = config or SimConfig()
    validate_sharded_config(config, telemetry_config)
    if not trace:
        raise SimulationError("empty flow trace")
    for arrival in trace:
        if arrival.src == arrival.dst:
            raise SimulationError(f"flow {arrival.flow_id} has src == dst")
    if len({a.flow_id for a in trace}) != len(trace):
        raise SimulationError("duplicate flow ids in trace")

    if partition is None:
        partition = topology.partition(shards, strategy=partition_strategy)

    lookahead = partition.lookahead_ns()
    if lookahead is not None and lookahead < 1:
        # A zero-latency cut link would allow same-instant cross-shard
        # causality, which windowed execution cannot order.
        raise SimulationError(
            "cannot shard across zero-latency links (lookahead would be 0); "
            "choose a partition whose cut links all have latency >= 1 ns"
        )

    horizon = config.horizon_ns
    if horizon is None:
        horizon = _default_horizon(topology, trace)
    n_flows = len(trace)

    started_wall = time.perf_counter()
    result = DistSimResult(
        metrics=SimMetrics(),
        telemetry_snapshot=None,
        shards=partition.k,
        lookahead_ns=lookahead,
        shard_sizes=tuple(len(partition.nodes_of(s)) for s in range(partition.k)),
        cut_links=len(partition.cut_edges()),
    )

    shard_sims = [
        ShardSim(
            topology, trace, config, shard_id, partition.nodes_of(shard_id),
            telemetry_config,
        )
        for shard_id in range(partition.k)
    ]
    shard_next = [shard.next_event_time() for shard in shard_sims]
    pending: List[List[Tuple[int, int, int, int, int, int, object]]] = [
        [] for _ in range(partition.k)
    ]
    now = 0
    next_grid = min(_PROGRESS_CHUNK_NS, horizon)
    duration: Optional[int] = None
    window_sum_ns = 0
    util_sum = 0.0
    util_rounds = 0
    while duration is None:
        t_min: Optional[int] = None
        for t in shard_next:
            if t is not None and (t_min is None or t < t_min):
                t_min = t
        for route in pending:
            for message in route:
                if t_min is None or message[0] < t_min:
                    t_min = message[0]
        if lookahead is None or t_min is None:
            end_ns = next_grid
        else:
            end_ns = min(t_min + lookahead - 1, next_grid)
        at_grid = end_ns == next_grid

        messages_by_shard = []
        for shard_id in range(partition.k):
            # Canonical injection order: arrival, then emission time
            # (the serial tie-breaker), then source shard, then
            # emission index.
            route = sorted(
                pending[shard_id],
                key=lambda m: (m[0], m[1], m[3], m[2]),
            )
            messages_by_shard.append([(m[0], m[4], m[5], m[6]) for m in route])
        pending = [[] for _ in range(partition.k)]

        reports = [
            shard.run_round(end_ns, messages, at_grid)
            for shard, messages in zip(shard_sims, messages_by_shard)
        ]
        result.rounds += 1
        window_ns = end_ns - now
        window_sum_ns += window_ns
        if lookahead is not None:
            # How much of the safe lookahead horizon each round
            # actually advanced; grid caps can make this exceed 1.
            util_sum += min(1.0, window_ns / lookahead)
            util_rounds += 1
        now = end_ns

        completed_total = 0
        for src_shard, (outbox, next_time, completed) in enumerate(reports):
            shard_next[src_shard] = next_time
            if completed is not None:
                completed_total += completed
            for arrival_ns, emit_ns, emit_idx, src, dst, packet in outbox:
                result.boundary_messages += 1
                pending[partition.shard_of(dst)].append(
                    (arrival_ns, emit_ns, emit_idx, src_shard, src, dst, packet)
                )

        if at_grid:
            if completed_total == n_flows:
                duration = now
            elif all(t is None for t in shard_next) and not any(pending):
                duration = now
            elif now >= horizon:
                duration = now
            else:
                next_grid = min(now + _PROGRESS_CHUNK_NS, horizon)

    shard_results = [shard.finalize(duration) for shard in shard_sims]

    _merge_results(result, topology, trace, config, duration, shard_results)
    shard_syncs = [s["sync"] for s in shard_results]
    result.sync_profile = {
        "rounds": result.rounds,
        "boundary_messages": result.boundary_messages,
        "lookahead_ns": lookahead,
        "mean_window_ns": (
            window_sum_ns / result.rounds if result.rounds else None
        ),
        "lookahead_utilization": (
            util_sum / util_rounds if util_rounds else None
        ),
        "exec_s": sum(s["exec_s"] for s in shard_syncs),
        "shards": shard_syncs,
    }
    result.metrics.wallclock_s = time.perf_counter() - started_wall
    return result


def _merge_results(
    result: DistSimResult,
    topology: Topology,
    trace: Sequence[FlowArrival],
    config: SimConfig,
    duration_ns: int,
    shard_results: List[dict],
) -> None:
    """Assemble the serial-equivalent ``SimMetrics`` (and telemetry) from
    the per-shard result dicts, given in shard order."""
    senders: Dict[int, tuple] = {}
    receivers: Dict[int, tuple] = {}
    for shard in shard_results:
        senders.update(shard["senders"])
        receivers.update(shard["receivers"])

    metrics = result.metrics
    metrics.flows = merge_flows(trace, senders, receivers)
    (
        metrics.max_queue_occupancy_bytes,
        metrics.total_bytes_on_wire,
        metrics.drops,
        metrics.wire_losses,
    ) = merge_port_stats(topology, [shard["ports"] for shard in shard_results])
    metrics.broadcast_bytes = sum(s["broadcast_bytes"] for s in shard_results)
    metrics.broadcast_packets = sum(s["broadcast_packets"] for s in shard_results)
    metrics.ack_bytes = sum(s["ack_bytes"] for s in shard_results)
    metrics.data_bytes_on_wire = (
        metrics.total_bytes_on_wire - metrics.broadcast_bytes - metrics.ack_bytes
    )
    metrics.events_processed = sum(s["events_processed"] for s in shard_results)
    metrics.duration_ns = duration_ns
    metrics.packet_latency = merge_latency([s["latency"] for s in shard_results])
    stats = merge_recompute([s["recompute"] for s in shard_results])
    if stats:
        metrics.recompute_overheads = [s.cpu_overhead for s in stats]
        metrics.epochs_skipped = sum(1 for s in stats if s.skipped)
        metrics.epochs_recomputed = len(stats) - metrics.epochs_skipped

    if config.audit:
        from ..validation.auditor import merge_audit_reports

        metrics.audit = merge_audit_reports(
            [s["audit"] for s in shard_results],
            flows=metrics.flows,
            drained=all(s["drained"] for s in shard_results),
            strict=config.audit_strict,
        )

    shard_obs = [s.get("flow_obs") for s in shard_results]
    if any(part is not None for part in shard_obs):
        metrics.flow_obs = ObsSession.merge(
            [part for part in shard_obs if part is not None]
        )

    shard_events = [s.get("trace_events") for s in shard_results]
    if any(events is not None for events in shard_events):
        result.trace_document = merge_trace_documents(
            [events or [] for events in shard_events],
            truncated=any(s.get("trace_truncated") for s in shard_results),
        )

    shard_snapshots = [s["telemetry"] for s in shard_results]
    if any(snapshot for snapshot in shard_snapshots):
        # One finalize pass over the *merged* metrics, exactly like the
        # serial runner's end-of-run rollup, then merge with the per-shard
        # snapshots (disjoint instrument sets: wire.*/sim.*/the
        # max-occupancy histogram come only from this pass).
        from ..telemetry import Telemetry, TelemetryConfig

        final_session = Telemetry(TelemetryConfig(metrics=True, trace=False))
        _finalize_telemetry(final_session, metrics)
        result.telemetry_snapshot = merge_telemetry_snapshots(
            shard_snapshots + [final_session.metrics.snapshot()]
        )
