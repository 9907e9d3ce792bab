"""Observability: metrics registry, event tracing, link probes.

One :class:`Telemetry` object is threaded through a run — the simulator,
the congestion controller, the broadcast substrate, the Maze runner and
the invariant auditor all write into its two sinks:

* :attr:`Telemetry.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges, fixed-bucket histograms and time series, exported as
  deterministic JSON (``repro simulate --metrics FILE``; pretty-print with
  ``repro report FILE``);
* :attr:`Telemetry.trace` — a :class:`TraceRecorder` emitting Chrome
  trace-event JSON (``repro simulate --trace FILE``; open in
  https://ui.perfetto.dev).

Disabled telemetry is a *null sink*: every site still resolves its
instruments, but they are falsy no-ops, so hot paths pay one truthiness
test — the same discipline (and cost) as the validation auditor's
``is not None`` hooks.  ``benchmarks/perf/bench_telemetry_overhead.py``
guards this at <= 2 % versus a run with no telemetry object at all.

Metric naming: dotted ``subsystem.quantity`` names with unit suffixes
(``_bytes``, ``_ns``) and Prometheus-style labels, e.g.
``link.utilization{src="0",dst="1"}``.  See DESIGN.md's Observability
section for the full catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..types import usec
from .probes import QUEUE_BUCKETS, LinkProbeSet
from .registry import (
    BYTE_BUCKETS,
    NULL_REGISTRY,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimeSeries,
    merge_snapshots,
)
from .signature import (
    SIGNATURE_FEATURES,
    SIGNATURE_SCHEMA_VERSION,
    log2_bucket,
    sim_signature,
)
from .trace import (
    MERGEABLE_TRACKS,
    NULL_TRACE,
    TRACK_BROADCAST,
    TRACK_CONTROLLER,
    TRACK_LINKS,
    TRACK_PACKETS,
    TRACK_SIM,
    TRACK_VALIDATION,
    NullTrace,
    TraceRecorder,
    canonical_trace_events,
    merge_trace_documents,
)

__all__ = [
    "BYTE_BUCKETS",
    "canonical_trace_events",
    "Counter",
    "Gauge",
    "Histogram",
    "LinkProbeSet",
    "log2_bucket",
    "MERGEABLE_TRACKS",
    "merge_snapshots",
    "merge_trace_documents",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACE",
    "NullRegistry",
    "NullTrace",
    "QUEUE_BUCKETS",
    "RATIO_BUCKETS",
    "SIGNATURE_FEATURES",
    "SIGNATURE_SCHEMA_VERSION",
    "sim_signature",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeries",
    "TraceRecorder",
    "TRACK_BROADCAST",
    "TRACK_CONTROLLER",
    "TRACK_LINKS",
    "TRACK_PACKETS",
    "TRACK_SIM",
    "TRACK_VALIDATION",
]


@dataclass
class TelemetryConfig:
    """What to record and how often.

    ``TelemetryConfig(metrics=False, trace=False)`` is the *disabled*
    configuration: the session carries null sinks everywhere, which is the
    mode the overhead benchmark compares against a no-telemetry run.
    """

    #: Record labeled metrics (counters/gauges/histograms/series).
    metrics: bool = True
    #: Record Chrome trace events.
    trace: bool = True
    #: Link-probe cadence; effective cadence is bounded below by the
    #: runner's progress chunk (1 ms default) — see :mod:`.probes`.
    link_probe_interval_ns: int = usec(100)
    #: Record per-link time series (set False on big fabrics to keep
    #: snapshots small; rack-wide aggregates are always recorded).
    per_link_series: bool = True
    #: Trace one in N data-packet lifecycles as spans (0 disables).
    packet_sample_every: int = 64
    #: Trace event-loop batches as spans.
    trace_eventloop: bool = True
    #: Trace-recorder event cap (see :class:`TraceRecorder`).
    max_trace_events: int = 1_000_000


class Telemetry:
    """One run's telemetry session: a metrics registry plus a trace."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry() if self.config.metrics else NULL_REGISTRY
        self.trace = (
            TraceRecorder(max_events=self.config.max_trace_events)
            if self.config.trace
            else NULL_TRACE
        )

    @property
    def enabled(self) -> bool:
        """True when at least one sink records anything."""
        return bool(self.metrics) or bool(self.trace)

    def link_probes(self, network, trace: bool = True) -> LinkProbeSet:
        """Build the link-probe sampler for *network*.

        ``trace=False`` keeps the probe's counter events out of the trace
        even when tracing is on — shards use this because per-probe-set
        aggregates are per-shard partials with no exact merge (see
        :data:`~repro.telemetry.trace.MERGEABLE_TRACKS`).
        """
        return LinkProbeSet(
            network,
            self.metrics,
            trace=self.trace if trace else None,
            interval_ns=self.config.link_probe_interval_ns,
            per_link_series=self.config.per_link_series,
        )

    def save_metrics(self, path) -> None:
        """Write the metrics snapshot JSON to *path*."""
        self.metrics.save(path)

    def save_trace(self, path) -> None:
        """Write the Chrome trace JSON to *path*."""
        self.trace.save(path)
