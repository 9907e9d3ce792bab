"""Tests for the metrics collector and the latency reservoir."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimConfig, run_simulation
from repro.sim.metrics import LatencyReservoir, SimMetrics
from repro.workloads import FixedSize, poisson_trace


class TestLatencyReservoir:
    def test_small_counts_exact(self):
        res = LatencyReservoir(capacity=100)
        for v in (1000, 2000, 3000):
            res.record(v)
        assert res.count == 3
        assert res.mean_ns == 2000
        assert res.max_ns == 3000
        assert res.percentile_us(50) == pytest.approx(2.0)

    def test_reservoir_bounds_memory(self):
        res = LatencyReservoir(capacity=10, seed=1)
        for v in range(10_000):
            res.record(v)
        assert res.count == 10_000
        assert len(res._samples) == 10

    def test_reservoir_estimates_are_sane(self):
        res = LatencyReservoir(capacity=500, seed=2)
        for v in range(10_000):
            res.record(v)
        # Median of 0..9999 is ~5000 ns = 5 us.
        assert res.percentile_us(50) == pytest.approx(5.0, rel=0.25)

    def test_empty_percentile_is_safe(self):
        # Empty-safe: telemetry exports must not raise on a dry run.
        reservoir = LatencyReservoir()
        assert reservoir.percentile_us(50) == 0.0
        assert reservoir.to_dict() == {
            "count": 0, "mean_ns": 0.0, "max_ns": 0, "p50_us": 0.0, "p99_us": 0.0,
        }

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            LatencyReservoir(capacity=0)


class TestMetricsFromRuns:
    @pytest.fixture(scope="class")
    def run(self, request):
        from repro.topology import TorusTopology

        topo = TorusTopology((4, 4))
        trace = poisson_trace(topo, 50, 10_000, sizes=FixedSize(50_000), seed=8)
        return run_simulation(topo, trace, SimConfig(stack="r2c2", seed=8))

    def test_latencies_recorded(self, run):
        assert run.packet_latency.count > 0
        # Latency is at least serialization + propagation of one hop.
        assert run.packet_latency.percentile_us(50) > 1.0

    def test_summary_keys(self, run):
        summary = run.summary()
        for key in ("flows", "completed", "drops", "broadcast_bytes"):
            assert key in summary

    def test_broadcast_fraction_bounded(self, run):
        assert 0.0 < run.broadcast_capacity_fraction() < 0.5

    def test_completion_rate(self, run):
        assert run.completion_rate() == 1.0

    def test_short_long_partition(self, run):
        # 50 KB flows are all "short" by the paper's 100 KB threshold.
        assert len(run.short_flows()) == len(run.completed_flows())
        assert run.long_flows() == []

    def test_empty_metrics_behaviour(self):
        metrics = SimMetrics()
        assert metrics.completion_rate() == 1.0
        assert metrics.broadcast_capacity_fraction() == 0.0
        with pytest.raises(SimulationError):
            metrics.fct_percentile_us(99)
        with pytest.raises(SimulationError):
            metrics.queue_occupancy_percentile_kb(99)
        with pytest.raises(SimulationError):
            metrics.mean_long_throughput_gbps()
