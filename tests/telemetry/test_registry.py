"""Unit tests for the metrics registry."""

import json

import pytest

from repro.errors import ReproError
from repro.telemetry import (
    BYTE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)

pytestmark = pytest.mark.telemetry


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        ctr = reg.counter("wire.bytes")
        ctr.inc(1500)
        ctr.inc()
        assert ctr.value == 1501

    def test_rejects_negative(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_split_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("epochs", outcome="recomputed")
        b = reg.counter("epochs", outcome="skipped")
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("e", k=1) is reg.counter("e", k=1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("flows")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_bucketing(self):
        hist = MetricsRegistry().histogram("q", buckets=(10.0, 100.0))
        for v in (5, 10, 50, 1000):
            hist.observe(v)
        # counts: <=10, <=100, overflow
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.max == 1000
        assert hist.min == 5

    def test_quantile_estimates(self):
        hist = MetricsRegistry().histogram("q", buckets=(10.0, 100.0, 1000.0))
        for _ in range(99):
            hist.observe(5)
        hist.observe(500)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 1000.0

    def test_empty_quantile_is_zero(self):
        assert MetricsRegistry().histogram("q").quantile(0.99) == 0.0

    def test_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ReproError):
            reg.histogram("a", buckets=())
        with pytest.raises(ReproError):
            reg.histogram("b", buckets=(10.0, 5.0))

    def test_default_buckets(self):
        hist = MetricsRegistry().histogram("bytes")
        assert hist.buckets == BYTE_BUCKETS


class TestTimeSeries:
    def test_append(self):
        series = MetricsRegistry().series("util", src=0, dst=1)
        series.append(1000, 0.5)
        series.append(2000, 0.7)
        assert len(series) == 2
        assert series.to_dict() == {"t_ns": [1000, 2000], "values": [0.5, 0.7]}


class TestRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("wire.bytes")
        with pytest.raises(ReproError):
            reg.histogram("wire.bytes")

    def test_snapshot_layout_and_rendering(self):
        reg = MetricsRegistry()
        reg.counter("drops", link="0-1").inc(2)
        reg.gauge("flows").set(4)
        reg.histogram("occ", buckets=(1.0,)).observe(0.5)
        reg.series("util", src=0).append(10, 0.1)
        snap = reg.snapshot()
        assert snap["counters"] == {'drops{link="0-1"}': 2}
        assert snap["gauges"] == {"flows": 4}
        assert "occ" in snap["histograms"]
        assert 'util{src="0"}' in snap["series"]

    def test_to_json_deterministic(self):
        def build():
            reg = MetricsRegistry()
            # Register in scrambled order; export must not care.
            reg.counter("b").inc(1)
            reg.counter("a", z=1).inc(2)
            reg.counter("a", y=1).inc(3)
            return reg

        assert build().to_json() == build().to_json()
        json.loads(build().to_json())  # valid JSON

    def test_save(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(7)
        path = tmp_path / "metrics.json"
        reg.save(path)
        assert json.loads(path.read_text())["counters"]["x"] == 7

    def test_instrument_kinds(self):
        reg = MetricsRegistry()
        assert isinstance(reg.counter("c"), Counter)
        assert isinstance(reg.gauge("g"), Gauge)
        assert isinstance(reg.histogram("h"), Histogram)
        assert isinstance(reg.series("s"), TimeSeries)
        assert reg.counter("c") is reg.counter("c")
