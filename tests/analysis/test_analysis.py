"""Tests for statistics helpers, channel-load analysis and table printers."""

import pytest

from repro.analysis import (
    SummaryStats,
    cdf_at,
    channel_loads,
    empirical_cdf,
    format_series,
    format_table,
    ks_distance,
    median,
    normalized_against,
    percentile,
    saturation_throughput,
    throughput_table,
)
from repro.errors import ReproError
from repro.routing import DestinationTagRouting, RandomPacketSpraying, ValiantLoadBalancing
from repro.topology import TorusTopology
from repro.workloads import STANDARD_PATTERNS, TornadoPattern, UniformPattern


class TestStats:
    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)
        assert median([1, 2, 3]) == 2

    def test_percentile_validation(self):
        with pytest.raises(ReproError):
            percentile([], 50)
        with pytest.raises(ReproError):
            percentile([1], 150)

    def test_empirical_cdf(self):
        xs, ps = empirical_cdf([3, 1, 2])
        assert list(xs) == [1, 2, 3]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_at(self):
        assert cdf_at([1, 2, 3, 4], 2.5) == 0.5

    def test_summary(self):
        stats = SummaryStats.of([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.max == 4.0
        assert set(stats.row()) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_summary_empty_is_safe(self):
        # Empty-safe: telemetry exports must not raise on a dry run.
        stats = SummaryStats.of([])
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.to_dict() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_normalized_against(self):
        out = normalized_against({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}
        with pytest.raises(ReproError):
            normalized_against({"a": 1.0}, "zzz")

    def test_ks_distance(self):
        same = ks_distance([1, 2, 3], [1, 2, 3])
        assert same == 0.0
        far = ks_distance([0, 0, 0], [10, 10, 10])
        assert far == 1.0
        assert 0 < ks_distance([1, 2, 3, 4], [2, 3, 4, 5]) < 1


class TestChannelLoad:
    @pytest.fixture
    def cube8(self):
        return TorusTopology((8, 8))

    def test_uniform_minimal_is_one(self, cube8):
        # The classic normalization: uniform + minimal routing saturates at
        # exactly one link's worth of injection per node (gamma = k/8 = 1).
        rps = RandomPacketSpraying(cube8)
        theta = saturation_throughput(rps, UniformPattern().matrix(cube8))
        assert theta == pytest.approx(1.0, abs=0.05)

    def test_tornado_exact_values(self, cube8):
        # Figure 2 row: tornado is 0.33 for minimal routing, 0.5 for VLB.
        tornado = TornadoPattern().matrix(cube8)
        assert saturation_throughput(
            DestinationTagRouting(cube8), tornado
        ) == pytest.approx(1 / 3, abs=0.01)
        assert saturation_throughput(
            ValiantLoadBalancing(cube8), tornado
        ) == pytest.approx(0.5, abs=0.03)

    def test_vlb_uniform_half(self, cube8):
        vlb = ValiantLoadBalancing(cube8)
        theta = saturation_throughput(vlb, UniformPattern().matrix(cube8))
        assert theta == pytest.approx(0.5, abs=0.03)

    def test_nearest_neighbor_locality_bonus(self, cube8):
        from repro.workloads import NearestNeighborPattern

        rps = RandomPacketSpraying(cube8)
        theta = saturation_throughput(rps, NearestNeighborPattern().matrix(cube8))
        assert theta == pytest.approx(4.0, abs=0.01)

    def test_loads_vector_shape(self, torus2d):
        rps = RandomPacketSpraying(torus2d)
        loads = channel_loads(rps, UniformPattern().matrix(torus2d))
        assert loads.shape == (torus2d.n_links,)
        assert loads.min() >= 0

    def test_table_requires_shared_topology(self, torus2d):
        other = TorusTopology((4, 4))
        with pytest.raises(ValueError):
            throughput_table(
                [RandomPacketSpraying(torus2d), RandomPacketSpraying(other)],
                [UniformPattern()],
            )

    def test_full_table_shape(self, torus2d):
        protocols = [RandomPacketSpraying(torus2d), ValiantLoadBalancing(torus2d)]
        patterns = [STANDARD_PATTERNS["uniform"], STANDARD_PATTERNS["tornado"]]
        table = throughput_table(protocols, patterns, include_worst_case=True)
        assert set(table) == {"uniform", "tornado", "worst-case"}
        assert set(table["uniform"]) == {"rps", "vlb"}


class TestFormatting:
    def test_format_table(self):
        text = format_table(
            "Title", ["a", "b"], {"row1": [1.0, 2.0], "row2": [3.0, 4.5]}
        )
        assert "Title" in text
        assert "row1" in text and "4.50" in text

    def test_format_series(self):
        text = format_series("S", "x", [1, 2], {"y": [0.5, 0.75]})
        assert "0.750" in text
