"""Tests for flow-size distributions, arrival processes and traces."""

import random

import pytest

from repro.errors import ReproError
from repro.workloads import (
    BurstArrivals,
    DeterministicArrivals,
    EmpiricalSizes,
    FixedSize,
    ParetoSizes,
    PoissonArrivals,
    permutation_load_trace,
    poisson_trace,
    trace_from_matrix,
    uniform_random_pair,
)
from repro.workloads.arrivals import ArrivalProcess


class TestSizes:
    def test_fixed(self, rng):
        assert FixedSize(1000).sample(rng) == 1000
        with pytest.raises(ReproError):
            FixedSize(0)

    def test_pareto_mean(self, rng):
        dist = ParetoSizes(mean_bytes=100 * 1024, shape=1.5)
        samples = dist.sample_many(rng, 20000)
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(100 * 1024, rel=0.2)

    def test_pareto_heavy_tail_claim(self):
        # §5.2: shape 1.05, mean 100 KB -> "95% of the flows are less than
        # 100 KB".
        dist = ParetoSizes(mean_bytes=100 * 1024, shape=1.05)
        rng = random.Random(7)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert sum(size < 100 * 1024 for size in samples) / len(samples) > 0.93

    def test_pareto_minimum(self, rng):
        dist = ParetoSizes(mean_bytes=100 * 1024, shape=1.05)
        assert all(s >= int(dist.x_min) for s in dist.sample_many(rng, 1000))

    def test_pareto_cap(self, rng):
        dist = ParetoSizes(mean_bytes=100 * 1024, shape=1.05, cap_bytes=10 ** 6)
        assert max(dist.sample_many(rng, 5000)) <= 10 ** 6

    def test_pareto_validation(self):
        with pytest.raises(ReproError):
            ParetoSizes(shape=1.0)
        with pytest.raises(ReproError):
            ParetoSizes(mean_bytes=0)

    def test_empirical_data_mining_shape(self, rng):
        dist = EmpiricalSizes.data_mining()
        samples = dist.sample_many(rng, 20000)
        small = sum(1 for s in samples if s <= 10_000) / len(samples)
        # [25]: ~80% of flows below 10 KB.
        assert small == pytest.approx(0.8, abs=0.05)

    def test_empirical_validation(self):
        with pytest.raises(ReproError):
            EmpiricalSizes([(100, 0.5)])
        with pytest.raises(ReproError):
            EmpiricalSizes([(100, 0.5), (50, 1.0)])
        with pytest.raises(ReproError):
            EmpiricalSizes([(100, 0.5), (200, 0.9)])


class TestArrivals:
    def test_poisson_mean(self, rng):
        proc = PoissonArrivals(mean_interarrival_ns=1000)
        times = proc.first_n(rng, 5000)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(1000, rel=0.1)

    def test_monotone(self, rng):
        times = PoissonArrivals(100).first_n(rng, 100)
        assert times == sorted(times)

    def test_deterministic(self, rng):
        assert DeterministicArrivals(10).first_n(rng, 3) == [10, 20, 30]

    def test_bursts(self, rng):
        times = BurstArrivals(10_000, burst_size=4).first_n(rng, 8)
        assert times[0] == times[1] == times[2] == times[3]
        assert times[4] > times[3]

    def test_zero_arrivals_is_empty(self, rng):
        # first_n used to append before comparing: count 0 never returned.
        processes = [
            PoissonArrivals(100), DeterministicArrivals(10), BurstArrivals(10_000, 4)
        ]
        assert {type(p) for p in processes} == set(ArrivalProcess.__subclasses__())
        for proc in processes:
            assert proc.first_n(rng, 0) == []
            assert proc.first_n(rng, -1) == []

    def test_first_n_draws_are_unchanged(self):
        # A prefix of the process's own stream, drawn the same way as before.
        rng = random.Random(3)
        stream = PoissonArrivals(100).arrival_times_ns(random.Random(3))
        assert PoissonArrivals(100).first_n(rng, 5) == [next(stream) for _ in range(5)]

    def test_validation(self):
        with pytest.raises(ReproError):
            PoissonArrivals(0)
        with pytest.raises(ReproError):
            BurstArrivals(100, 0)


class TestTraces:
    def test_poisson_trace_shape(self, torus2d):
        trace = poisson_trace(torus2d, 100, 1000, seed=5)
        assert len(trace) == 100
        assert all(a.src != a.dst for a in trace)
        assert [a.flow_id for a in trace] == list(range(100))
        starts = [a.start_ns for a in trace]
        assert starts == sorted(starts)

    def test_trace_deterministic_by_seed(self, torus2d):
        a = poisson_trace(torus2d, 50, 1000, seed=9)
        b = poisson_trace(torus2d, 50, 1000, seed=9)
        assert a == b
        c = poisson_trace(torus2d, 50, 1000, seed=10)
        assert a != c

    def test_uniform_random_pair(self, torus2d, rng):
        for _ in range(200):
            src, dst = uniform_random_pair(torus2d, rng)
            assert src != dst
            assert 0 <= src < 16 and 0 <= dst < 16

    def test_permutation_load_trace(self, torus3d):
        trace = permutation_load_trace(torus3d, load=0.5, seed=2)
        assert len(trace) == 32
        sources = [a.src for a in trace]
        dests = [a.dst for a in trace]
        assert len(set(sources)) == len(sources)
        assert len(set(dests)) == len(dests)
        assert all(s != d for s, d in zip(sources, dests))

    def test_permutation_full_load(self, torus2d):
        trace = permutation_load_trace(torus2d, load=1.0, seed=3)
        assert len(trace) == 16

    def test_permutation_load_validation(self, torus2d):
        with pytest.raises(ReproError):
            permutation_load_trace(torus2d, load=1.5)

    def test_trace_from_matrix(self, torus2d):
        from repro.workloads import NearestNeighborPattern

        matrix = NearestNeighborPattern().matrix(torus2d)
        trace = trace_from_matrix(torus2d, matrix)
        assert len(trace) == len(matrix)
        assert all(a.weight == pytest.approx(0.25) for a in trace)
