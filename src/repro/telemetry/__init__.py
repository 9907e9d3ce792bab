"""Observability: metrics registry, event tracing, link probes.

One :class:`Telemetry` object is threaded through a simulation run — the
runner's link probes, the :class:`~repro.sim.probe.SimProbe` (event-loop
batches, sampled packets, broadcast announcements), the congestion
controller and the invariant auditor all write into its two sinks:

* :attr:`Telemetry.metrics` — a :class:`MetricsRegistry` of labeled
  counters, gauges, fixed-bucket histograms and time series, exported as
  deterministic JSON (``repro simulate --metrics FILE``; pretty-print with
  ``repro report FILE``);
* :attr:`Telemetry.trace` — a :class:`TraceRecorder` emitting Chrome
  trace-event JSON (``repro simulate --trace FILE``; open in
  https://ui.perfetto.dev).

Off is ``None``: a sink the :class:`TelemetryConfig` turns off is
``None`` on the session, every site that would write into it holds
``None`` instead of an instrument, and hot paths pay one ``is not None``
test — the same discipline as the validation auditor's hooks.  A session
with both sinks off observes nothing, so the simulator treats it exactly
like no session at all; ``benchmarks/perf/bench_telemetry_overhead.py``
guards that at <= 2 % versus a run with no telemetry object.

Metric naming: dotted ``subsystem.quantity`` names with unit suffixes
(``_bytes``, ``_ns``) and Prometheus-style labels, e.g.
``link.utilization{src="0",dst="1"}``.  See DESIGN.md's Observability
section for the full catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .probes import QUEUE_BUCKETS, LinkProbeSet
from .registry import (
    BYTE_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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
    TRACK_BROADCAST,
    TRACK_CONTROLLER,
    TRACK_LINKS,
    TRACK_PACKETS,
    TRACK_SIM,
    TRACK_VALIDATION,
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
    """What to record.

    ``metrics`` and ``trace`` switch the two sinks; a switched-off sink is
    ``None`` on the :class:`Telemetry` session.  With both off the session
    is disabled (:attr:`Telemetry.enabled` is false) and observes nothing —
    the mode the overhead benchmark compares against a no-telemetry run.
    """

    #: Record labeled metrics (counters/gauges/histograms/series).
    metrics: bool = True
    #: Record Chrome trace events.
    trace: bool = True
    #: Record per-link time series (set False on big fabrics to keep
    #: snapshots small; rack-wide aggregates are always recorded).
    per_link_series: bool = True
    #: Trace one in N data-packet lifecycles as spans (0 disables).
    packet_sample_every: int = 64
    #: Trace event-loop batches as spans.
    trace_eventloop: bool = True


class Telemetry:
    """One run's telemetry session: a metrics registry plus a trace, each
    ``None`` when its :class:`TelemetryConfig` switch is off."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder() if self.config.trace else None
        )

    @property
    def enabled(self) -> bool:
        """True when at least one sink records anything."""
        return self.metrics is not None or self.trace is not None

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
            per_link_series=self.config.per_link_series,
        )

    def save_metrics(self, path) -> None:
        """Write the metrics snapshot JSON to *path*."""
        self.metrics.save(path)

    def save_trace(self, path) -> None:
        """Write the Chrome trace JSON to *path*."""
        self.trace.save(path)
