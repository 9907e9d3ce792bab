"""Tests for the fluid (flow-level) simulator."""

import math

import pytest

from repro.congestion import ControllerConfig
from repro.sim.fluid import FluidSimulator, average_rate_error
from repro.topology import GraphTopology, TorusTopology
from repro.workloads import FixedSize, FlowArrival, poisson_trace


@pytest.fixture
def pipe():
    """Two nodes, one 10 bps cable — trivially checkable arithmetic."""
    return GraphTopology(2, [(0, 1)], capacity_bps=10.0, latency_ns=0)


class TestFluidBasics:
    def test_single_flow_fct(self, pipe):
        # 100 bytes at 10 bps with no headroom: 80 seconds.
        sim = FluidSimulator(
            pipe, config=ControllerConfig(headroom=0.0, recompute_interval_ns=0)
        )
        results = sim.run([FlowArrival(0, 0, 1, 100, 0, protocol="rps")])
        assert results[0].fct_ns == pytest.approx(80e9, rel=1e-6)
        assert results[0].average_rate_bps == pytest.approx(10.0)

    def test_two_flows_share_then_speed_up(self, pipe):
        # Ideal mode: two equal flows split the pipe; when one finishes the
        # other takes the whole capacity.
        sim = FluidSimulator(
            pipe, config=ControllerConfig(headroom=0.0, recompute_interval_ns=0)
        )
        trace = [
            FlowArrival(0, 0, 1, 100, 0, protocol="rps"),
            FlowArrival(1, 0, 1, 50, 0, protocol="rps"),
        ]
        results = sim.run(trace)
        # Flow 1: 50 bytes at 5 bps = 80 s.  Flow 0: 50 bytes at 5, then
        # 50 bytes at 10 -> 120 s.
        assert results[1].fct_ns == pytest.approx(80e9, rel=1e-6)
        assert results[0].fct_ns == pytest.approx(120e9, rel=1e-6)

    def test_headroom_slows_flows(self, pipe):
        sim = FluidSimulator(
            pipe, config=ControllerConfig(headroom=0.5, recompute_interval_ns=0)
        )
        results = sim.run([FlowArrival(0, 0, 1, 100, 0, protocol="rps")])
        assert results[0].average_rate_bps == pytest.approx(5.0)

    def test_batched_mode_initial_rate(self, pipe):
        # With a huge interval the flow runs entirely at the initial rate
        # (line rate here: nothing was allocated before).
        sim = FluidSimulator(
            pipe,
            config=ControllerConfig(
                headroom=0.0,
                recompute_interval_ns=10**12,
                initial_rate_policy="line_rate",
            ),
        )
        results = sim.run([FlowArrival(0, 0, 1, 100, 0, protocol="rps")])
        assert results[0].average_rate_bps == pytest.approx(10.0)

    def test_empty_trace(self, pipe):
        assert FluidSimulator(pipe).run([]) == {}

    def test_recomputation_counter(self, pipe):
        sim = FluidSimulator(
            pipe, config=ControllerConfig(headroom=0.0, recompute_interval_ns=0)
        )
        sim.run(
            [
                FlowArrival(0, 0, 1, 100, 0, protocol="rps"),
                FlowArrival(1, 0, 1, 100, 10, protocol="rps"),
            ]
        )
        assert sim.recomputations >= 3  # two arrivals + a departure


class TestRateError:
    def test_zero_interval_has_zero_error(self, torus2d):
        trace = poisson_trace(torus2d, 40, 5_000, sizes=FixedSize(100_000), seed=6)
        errors = average_rate_error(torus2d, trace, rho_ns=0)
        assert max(errors) == pytest.approx(0.0, abs=1e-9)

    def test_error_grows_with_interval(self, torus3d):
        # The Figure 15 trend: larger rho, larger deviation from ideal.
        trace = poisson_trace(torus3d, 250, 1_000, seed=8)
        from repro.analysis import median

        small = median(average_rate_error(torus3d, trace, rho_ns=10_000))
        large = median(average_rate_error(torus3d, trace, rho_ns=1_000_000))
        assert small <= large

    def test_errors_are_per_flow(self, torus2d):
        trace = poisson_trace(torus2d, 30, 5_000, seed=9)
        errors = average_rate_error(torus2d, trace, rho_ns=500_000)
        assert len(errors) == 30
        assert all(e >= 0 for e in errors)
