"""Per-link probes: utilization, queue depth and drops on a cadence.

A :class:`LinkProbeSet` samples every output port of a
:class:`~repro.sim.network.RackNetwork` (or anything exposing the same
``link_stats()`` shape) into the metrics registry and the trace:

* per-link **time series** — ``link.utilization{src,dst}`` (fraction of
  line rate over the sampling window) and ``link.queue_bytes{src,dst}``;
* rack-wide **histograms** — instantaneous queue occupancy and window
  utilization distributions (the Figure 7b/14 quantities, observed live
  instead of post hoc);
* aggregate **trace counters** — total queued bytes, mean utilization and
  cumulative drops as ``ph: "C"`` events, one per sample, so Perfetto
  shows the rack's load as area charts.  Per-link data stays out of the
  trace on purpose: N_links x N_samples counter tracks make traces
  unreadable and huge; the per-link resolution lives in the metrics
  snapshot.

The probe is *pulled*, not scheduled: the simulation runner calls
:meth:`maybe_sample` from its progress loop rather than planting recurring
events in the event heap.  That guarantees telemetry can never perturb the
simulation — no extra events, no termination-condition interference, and
byte-identical simulation results with probes on or off (a property the
telemetry tests assert).  Effective cadence is therefore
``max(PROBE_INTERVAL_NS, runner progress chunk)``.

Either sink may be ``None`` (a trace-only or metrics-only session): the
probe then writes only into the other one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..types import usec
from .registry import RATIO_BUCKETS, MetricsRegistry
from .trace import TRACK_LINKS

#: Sampling cadence (bounded below by the runner's progress chunk).
PROBE_INTERVAL_NS = usec(100)

#: Queue-occupancy histogram bounds: 0 B .. 16 MB, quarter-decade-ish.
QUEUE_BUCKETS: Tuple[float, ...] = (
    0.0, 1500.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0,
)


class LinkProbeSet:
    """Samples link/queue statistics from a network into telemetry sinks."""

    def __init__(
        self,
        network,
        registry: Optional[MetricsRegistry],
        trace=None,
        per_link_series: bool = True,
    ) -> None:
        self._network = network
        self._registry = registry
        self._trace = trace
        self._per_link = per_link_series
        self._next_due_ns = 0
        self._last_sample_ns: Optional[int] = None
        #: (src, dst) -> bytes_sent at the previous sample (for deltas).
        self._last_bytes: Dict[Tuple[int, int], int] = {}
        self.samples_taken = 0
        self._hist_queue = self._hist_util = None
        if registry is not None:
            self._hist_queue = registry.histogram(
                "queue.occupancy_bytes", buckets=QUEUE_BUCKETS
            )
            self._hist_util = registry.histogram(
                "link.utilization", buckets=RATIO_BUCKETS
            )

    def maybe_sample(self, now_ns: int) -> bool:
        """Sample if the cadence says one is due; returns True if sampled."""
        if now_ns < self._next_due_ns:
            return False
        self.sample(now_ns)
        # Skip ahead over missed windows instead of looping through them.
        self._next_due_ns = now_ns + PROBE_INTERVAL_NS
        return True

    def sample(self, now_ns: int) -> None:
        """Take one sample of every link right now."""
        window_ns = (
            now_ns - self._last_sample_ns
            if self._last_sample_ns is not None
            else None
        )
        total_queued = 0
        total_drops = 0
        util_sum = 0.0
        n_links = 0
        registry = self._registry
        for src, dst, bytes_sent, occupancy, drops in self._network.link_stats():
            n_links += 1
            total_queued += occupancy
            total_drops += drops
            utilization = 0.0
            if window_ns:
                delta = bytes_sent - self._last_bytes.get((src, dst), 0)
                capacity = self._network.link_capacity_bps(src, dst)
                if capacity > 0:
                    utilization = min(1.0, delta * 8e9 / (capacity * window_ns))
                util_sum += utilization
            self._last_bytes[(src, dst)] = bytes_sent
            if registry is None:
                continue
            self._hist_queue.observe(occupancy)
            if window_ns:
                self._hist_util.observe(utilization)
            if self._per_link:
                registry.series("link.util", src=src, dst=dst).append(
                    now_ns, utilization
                )
                registry.series("link.queue_bytes", src=src, dst=dst).append(
                    now_ns, occupancy
                )
        if registry is not None:
            registry.series("rack.queued_bytes").append(now_ns, total_queued)
            registry.series("rack.drops").append(now_ns, total_drops)
        if self._trace is not None:
            self._trace.counter(
                "rack.queued_bytes", now_ns, {"bytes": total_queued}, tid=TRACK_LINKS
            )
            self._trace.counter(
                "rack.mean_utilization",
                now_ns,
                {"fraction": round(util_sum / n_links, 6) if n_links else 0.0},
                tid=TRACK_LINKS,
            )
            self._trace.counter(
                "rack.drops", now_ns, {"drops": total_drops}, tid=TRACK_LINKS
            )
        self._last_sample_ns = now_ns
        self.samples_taken += 1
