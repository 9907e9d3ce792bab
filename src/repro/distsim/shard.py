"""One shard of a sharded simulation: build, windowed execution, results.

A :class:`ShardSim` is the serial engine restricted to one shard's nodes:
the same build sequence as :func:`repro.sim.runner.run_simulation` (stacks,
control plane, FIB, arrival scheduling — in the same order, so event-loop
sequence numbers assign identically), except that

* only ports/stacks/controllers of *owned* nodes exist,
* cut ports hand finished packets to the boundary outbox instead of
  scheduling local propagation (see ``RackNetwork(owned_nodes=...)``), and
* the event loop advances in externally granted windows
  (:meth:`run_round`) instead of free-running.

The coordinator (:mod:`repro.distsim.coordinator`) owns all global
decisions — window sizing, message routing, termination, merging — and
steps every shard in the calling process, one after the other.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..sim.engine import EventLoop
from ..sim.flows import SimFlow
from ..sim.metrics import SimMetrics
from ..sim.probe import build_probe
from ..sim.runner import SimConfig, _build_r2c2, _build_tcp
from ..topology.base import Topology
from ..workloads.generator import FlowArrival
from .merge import receiver_state, sender_state

#: A cross-shard packet hand-off: emitted when a cut port finishes
#: serializing.  ``emit_ns`` is the transmission-finish time (the instant
#: the serial engine would have scheduled the propagation event) and
#: ``emit_idx`` preserves same-instant emission order within the shard —
#: together a deterministic routing order for the coordinator.  ``src`` is
#: the cut link's sending node: the receiving shard schedules the arrival
#: with that link's delivery priority (:func:`repro.sim.network.link_prio`),
#: which is how an injected event sorts against the destination's
#: same-instant local events exactly as the serial engine's propagation
#: event would.  Layout: (arrival_ns, emit_ns, emit_idx, src, dst, packet).
BoundaryMessage = Tuple[int, int, int, int, int, object]


class ShardSim:
    """One shard's event loop, network slice and stacks."""

    def __init__(
        self,
        topology: Topology,
        trace: Sequence[FlowArrival],
        config: SimConfig,
        shard_id: int,
        owned_nodes: Sequence[int],
        telemetry_config=None,
    ) -> None:
        self.shard_id = shard_id
        self.owned = frozenset(owned_nodes)
        self.loop = EventLoop()
        self.metrics = SimMetrics()
        self.flows: Dict[int, SimFlow] = {a.flow_id: SimFlow(a) for a in trace}
        self._trace = trace
        self._outbox: List[BoundaryMessage] = []
        self._recv_flows = [
            self.flows[a.flow_id] for a in trace if a.dst in self.owned
        ]

        self.telemetry = None
        if telemetry_config is not None and (
            telemetry_config.metrics or telemetry_config.trace
        ):
            # Per-link series are unmergeable (merge_snapshots drops
            # series), so shards skip them.  Traces *are* recorded when
            # asked: every shard keeps per-event (ts_ns, seq) order
            # metadata and the coordinator merges the streams
            # deterministically — but only window-independent tracks
            # (see telemetry.trace.MERGEABLE_TRACKS), so event-loop batch
            # spans (windowed rounds, a sharding artifact) and link-probe
            # counters (per-shard partial aggregates) stay out.
            from ..telemetry import Telemetry, TelemetryConfig

            self.telemetry = Telemetry(
                TelemetryConfig(
                    metrics=telemetry_config.metrics,
                    trace=telemetry_config.trace,
                    link_probe_interval_ns=telemetry_config.link_probe_interval_ns,
                    per_link_series=False,
                    packet_sample_every=telemetry_config.packet_sample_every,
                    trace_eventloop=False,
                    max_trace_events=telemetry_config.max_trace_events,
                )
            )

        # Per-round synchronization accounting (the distsim sync profiler):
        # boundary-message traffic plus the wall clock spent executing
        # windows (the load-balance number).  Wall-clock quantities stay on
        # the DistSimResult — never in the merged SimMetrics.
        self._sync = {
            "rounds": 0,
            "boundary_in": 0,
            "boundary_out": 0,
            "exec_s": 0.0,
        }

        # The same single wiring point as the serial runner: the probe's
        # subscribers observe this shard's event loop, network slice and
        # stacks.  The auditor's transit (propagated == arrived) check is
        # deferred to the coordinator, which sums the per-shard counters (a
        # cut port's packets arrive in *another* shard's auditor), and its
        # final per-flow audit runs once over the merged flow states.  Each
        # shard owns a causal-tracing session: sender-side waits accumulate
        # in the source node's shard and travel on the packet as
        # injection-time snapshots, completion records freeze in the
        # destination node's shard, and the coordinator unions the
        # (disjoint) completion maps.
        self.probe = build_probe(config, self.telemetry, self.loop)

        owned_sorted = sorted(self.owned)
        if config.stack == "r2c2":
            self.network, self.control = _build_r2c2(
                topology,
                self.loop,
                self.flows,
                self.metrics,
                config,
                provider=None,
                probe=self.probe,
                telemetry=self.telemetry,
                owned_nodes=owned_sorted,
                boundary=self._boundary,
            )
        elif config.stack == "tcp":
            self.network = _build_tcp(
                topology,
                self.loop,
                self.flows,
                self.metrics,
                config,
                probe=self.probe,
                owned_nodes=owned_sorted,
                boundary=self._boundary,
            )
            self.control = None
        else:
            raise SimulationError(
                f"stack {config.stack!r} does not support sharded execution"
            )

        self.probes = None
        if self.telemetry is not None and self.telemetry.metrics:
            # trace=False: probe counters are per-shard partial aggregates
            # with no exact merge, so they stay out of shard traces.
            self.probes = self.telemetry.link_probes(self.network, trace=False)

        # Arrival scheduling mirrors the serial runner: after the build, in
        # trace order, restricted to flows this shard sends.
        for arrival in trace:
            if arrival.src in self.owned:
                self.loop.schedule_at(
                    arrival.start_ns,
                    self.network.stack_at[arrival.src].start_flow,
                    self.flows[arrival.flow_id],
                )

    # ------------------------------------------------------------------
    def _boundary(self, arrival_ns: int, src: int, dst: int, packet) -> None:
        """Cut-port hand-off: record a timestamped cross-shard message."""
        self._outbox.append(
            (arrival_ns, self.loop.now, len(self._outbox), src, dst, packet)
        )

    def next_event_time(self) -> Optional[int]:
        """Earliest pending local event (lower bound on future emissions)."""
        return self.loop.next_event_time()

    def run_round(
        self,
        end_ns: int,
        messages: Sequence[Tuple[int, int, int, object]],
        at_grid: bool,
    ) -> Tuple[List[BoundaryMessage], Optional[int], Optional[int]]:
        """Inject *messages*, run the granted window, report back.

        Args:
            end_ns: Window edge; every local event with timestamp
                ``<= end_ns`` executes and the clock parks at ``end_ns``.
            messages: Cross-shard arrivals ``(arrival_ns, src, dst,
                packet)`` in the coordinator's canonical order; each is
                scheduled before the window runs (all arrivals are provably
                in the future — the conservative protocol guarantees it)
                with its cut link's delivery priority, a broadcast copy in
                its arrival instant's batch (``RackNetwork.receive``).
            at_grid: True when ``end_ns`` is a progress-grid boundary, where
                the serial engine samples link probes and checks
                termination; the shard mirrors the probe sample and reports
                its completed-flow count.

        Returns:
            ``(outbox, next_event_time, completed)`` — boundary messages
            emitted during the window, the earliest still-pending local
            event (``None`` if drained), and the number of owned completed
            flows (``None`` unless *at_grid*).
        """
        entered = time.perf_counter()
        sync = self._sync
        receive = self.network.receive
        for arrival_ns, src, dst, packet in messages:
            receive(arrival_ns, src, dst, packet)
        self.loop.run_window(end_ns)
        if at_grid and self.probes is not None:
            self.probes.maybe_sample(self.loop.now)
        outbox = self._outbox
        self._outbox = []
        completed = None
        if at_grid:
            completed = sum(1 for f in self._recv_flows if f.completed_ns is not None)
        sync["rounds"] += 1
        sync["boundary_in"] += len(messages)
        sync["boundary_out"] += len(outbox)
        sync["exec_s"] += time.perf_counter() - entered
        return outbox, self.loop.next_event_time(), completed

    def finalize(self, duration_ns: int) -> dict:
        """Collect this shard's contribution to the merged results."""
        if self.loop.now != duration_ns:
            raise SimulationError(
                f"shard {self.shard_id} clock at {self.loop.now} ns, "
                f"expected {duration_ns} ns"
            )
        if self.probes is not None:
            # The serial runner takes one unconditional final sample.
            self.probes.sample(self.loop.now)
        owned = self.owned
        ports = {
            (port.src, port.dst): (
                port.bytes_sent,
                port.max_occupancy_bytes,
                port.drops,
                port.wire_losses,
            )
            for port in self.network.ports()
        }
        recompute: Dict[int, list] = {}
        if self.control is not None:
            recompute = self.control.recompute_stats_by_node()
        drained = self.loop.pending() == 0
        auditor = obs = audit = None
        if self.probe is not None:
            auditor, obs = self.probe.auditor, self.probe.obs
        if auditor is not None:
            # Per-shard end-of-run checks; the transit and final per-flow
            # checks belong to the coordinator (merge_audit_reports).
            auditor.check_conservation(drained=drained, check_transit=False)
            audit = auditor.report()
        reservoir = self.metrics.packet_latency
        return {
            "senders": {
                a.flow_id: sender_state(self.flows[a.flow_id])
                for a in self._trace
                if a.src in owned
            },
            "receivers": {
                a.flow_id: receiver_state(self.flows[a.flow_id])
                for a in self._trace
                if a.dst in owned
            },
            "ports": ports,
            "broadcast_bytes": self.metrics.broadcast_bytes,
            "broadcast_packets": self.metrics.broadcast_packets,
            "ack_bytes": self.metrics.ack_bytes,
            "events_processed": self.loop.events_processed,
            "latency": {
                "count": reservoir.count,
                "total_ns": reservoir.total_ns,
                "max_ns": reservoir.max_ns,
                "samples": list(reservoir._samples),
            },
            "recompute": recompute,
            "drained": drained,
            "audit": audit,
            "telemetry": (
                self.telemetry.metrics.snapshot()
                if self.telemetry is not None and self.telemetry.metrics
                else None
            ),
            "trace_events": (
                self.telemetry.trace.export_events()
                if self.telemetry is not None and self.telemetry.trace
                else None
            ),
            "trace_truncated": (
                self.telemetry is not None and self.telemetry.trace.truncated
            ),
            "flow_obs": obs.results() if obs is not None else None,
            "sync": dict(self._sync),
        }
