"""Simulation metrics: the quantities the paper's figures report.

* Flow completion times of short flows (< 100 KB): Figures 10, 12.
* Average throughput of long flows (> 1 MB): Figures 11, 13, 17b.
* Maximum queue occupancy percentiles: Figures 7b, 14.
* Reorder-buffer sizes (§5.2's reordering note).
* Control-plane byte accounting: Figure 19 and the §3.2 overhead claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.stats import SummaryStats, percentile
from ..errors import SimulationError
from .flows import SimFlow

#: Paper thresholds for "short" and "long" flows (§5.2).
SHORT_FLOW_BYTES = 100 * 1024
LONG_FLOW_BYTES = 1024 * 1024


class LatencyReservoir:
    """Bounded reservoir sample of per-packet end-to-end latencies.

    Simulations move millions of packets; storing every latency would
    dominate memory, so a classic reservoir sample (plus exact count, max
    and mean) keeps percentile estimates cheap and unbiased.
    """

    def __init__(self, capacity: int = 8192, seed: int = 0) -> None:
        if capacity < 1:
            raise SimulationError("reservoir capacity must be >= 1")
        self._capacity = capacity
        self._rng = random.Random(seed ^ 0x1A7E)
        self._samples: List[int] = []
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    def record(self, latency_ns: int) -> None:
        """Fold one packet latency into the reservoir."""
        self.count += 1
        self.total_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        if len(self._samples) < self._capacity:
            self._samples.append(latency_ns)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._samples[slot] = latency_ns

    @property
    def mean_ns(self) -> float:
        """Exact mean latency."""
        return self.total_ns / self.count if self.count else 0.0

    def percentile_us(self, pct: float) -> float:
        """Estimated latency percentile in microseconds (0.0 when empty).

        Empty-safe: a run that delivered no packets (e.g. a horizon cut
        short, or a telemetry export of a dry run) reports 0.0 instead of
        raising mid-export.
        """
        if not self._samples:
            return 0.0
        return percentile(self._samples, pct) / 1e3

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready summary (exact count/mean/max, estimated percentiles)."""
        return {
            "count": self.count,
            "mean_ns": self.mean_ns,
            "max_ns": self.max_ns,
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
        }


@dataclass
class SimMetrics:
    """Aggregated results of one simulation run."""

    flows: List[SimFlow] = field(default_factory=list)
    max_queue_occupancy_bytes: List[int] = field(default_factory=list)
    broadcast_bytes: int = 0
    broadcast_packets: int = 0
    ack_bytes: int = 0
    data_bytes_on_wire: int = 0
    total_bytes_on_wire: int = 0
    drops: int = 0
    wire_losses: int = 0
    events_processed: int = 0
    packet_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    duration_ns: int = 0
    wallclock_s: float = 0.0
    recompute_overheads: List[float] = field(default_factory=list)
    #: Control-loop epoch accounting (PR 2's short-circuit optimisation):
    #: how many epochs actually re-ran the water-fill vs. were skipped
    #: because the flow table had not changed.
    epochs_recomputed: int = 0
    epochs_skipped: int = 0
    #: :class:`~repro.validation.AuditReport` when the run was audited
    #: (``SimConfig(audit=True)``), ``None`` otherwise.  Typed loosely to
    #: keep this module independent of :mod:`repro.validation`.
    audit: Optional[object] = None
    #: Causal FCT decompositions (``SimConfig(obs=True)``): flow_id ->
    #: record, see :meth:`repro.obs.ObsSession.results`.  ``None`` when
    #: tracing is off.  Pure simulated-time integers, so serial and sharded
    #: runs of one scenario produce identical maps.
    flow_obs: Optional[Dict[int, dict]] = None
    #: Flight-recorder dump (``SimConfig(flight=True)``), ``None``
    #: otherwise; see :meth:`repro.obs.FlightRecorder.dump`.
    flight_dump: Optional[dict] = None

    # ------------------------------------------------------------------
    # Flow selections
    # ------------------------------------------------------------------
    def completed_flows(self) -> List[SimFlow]:
        """Flows that finished within the simulated horizon."""
        return [f for f in self.flows if f.completed]

    def short_flows(self) -> List[SimFlow]:
        """Completed flows smaller than :data:`SHORT_FLOW_BYTES`."""
        return [f for f in self.completed_flows() if f.size_bytes < SHORT_FLOW_BYTES]

    def long_flows(self) -> List[SimFlow]:
        """Completed flows larger than :data:`LONG_FLOW_BYTES`."""
        return [f for f in self.completed_flows() if f.size_bytes > LONG_FLOW_BYTES]

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def short_fcts_us(self) -> List[float]:
        """Short-flow completion times in microseconds."""
        return [f.fct_ns() / 1e3 for f in self.short_flows()]

    def long_throughputs_gbps(self) -> List[float]:
        """Long-flow average throughputs in Gbit/s."""
        return [f.average_throughput_bps() / 1e9 for f in self.long_flows()]

    def fct_percentile_us(self, pct: float) -> float:
        """Short-flow FCT percentile (Figure 12 reports the 99th)."""
        values = self.short_fcts_us()
        if not values:
            raise SimulationError("no completed short flows")
        return percentile(values, pct)

    def mean_long_throughput_gbps(self) -> float:
        """Average long-flow throughput (Figure 13)."""
        values = self.long_throughputs_gbps()
        if not values:
            raise SimulationError("no completed long flows")
        return sum(values) / len(values)

    def queue_occupancy_percentile_kb(self, pct: float) -> float:
        """Percentile over per-port max occupancies, in KB (Figure 14)."""
        if not self.max_queue_occupancy_bytes:
            raise SimulationError("no queue statistics recorded")
        return percentile(self.max_queue_occupancy_bytes, pct) / 1000.0

    def broadcast_capacity_fraction(self) -> float:
        """Share of all wire bytes spent on broadcasts (Figure 9 measured)."""
        if self.total_bytes_on_wire == 0:
            return 0.0
        return self.broadcast_bytes / self.total_bytes_on_wire

    def completion_rate(self) -> float:
        """Fraction of flows that completed within the horizon."""
        if not self.flows:
            return 1.0
        return len(self.completed_flows()) / len(self.flows)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers for printing/logging."""
        out: Dict[str, float] = {
            "flows": float(len(self.flows)),
            "completed": float(len(self.completed_flows())),
            "drops": float(self.drops),
            "broadcast_bytes": float(self.broadcast_bytes),
            "events": float(self.events_processed),
            "duration_ms": self.duration_ns / 1e6,
        }
        if self.epochs_recomputed or self.epochs_skipped:
            out["epochs_recomputed"] = float(self.epochs_recomputed)
            out["epochs_skipped"] = float(self.epochs_skipped)
        shorts = self.short_fcts_us()
        if shorts:
            stats = SummaryStats.of(shorts)
            out["short_fct_p50_us"] = stats.p50
            out["short_fct_p99_us"] = stats.p99
        longs = self.long_throughputs_gbps()
        if longs:
            out["long_tput_mean_gbps"] = sum(longs) / len(longs)
        if self.max_queue_occupancy_bytes:
            out["queue_p50_kb"] = self.queue_occupancy_percentile_kb(50)
            out["queue_p99_kb"] = self.queue_occupancy_percentile_kb(99)
        return out
