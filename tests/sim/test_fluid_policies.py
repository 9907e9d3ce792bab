"""Fluid-simulator young-flow policy behaviour."""

import pytest

from repro.congestion import ControllerConfig
from repro.sim.fluid import FluidSimulator
from repro.topology import GraphTopology
from repro.workloads import FlowArrival


@pytest.fixture
def pipe():
    return GraphTopology(2, [(0, 1)], capacity_bps=10.0, latency_ns=0)


class TestYoungFlowPolicies:
    def test_local_waterfill_gives_fair_share_immediately(self, pipe):
        # Two simultaneous flows under huge rho: with local_waterfill the
        # second flow starts at its fair share (water-filled with both
        # present), not at line rate.
        sim = FluidSimulator(
            pipe,
            config=ControllerConfig(
                headroom=0.0,
                recompute_interval_ns=10**12,
                initial_rate_policy="local_waterfill",
            ),
        )
        trace = [
            FlowArrival(0, 0, 1, 100, 0, protocol="rps"),
            FlowArrival(1, 0, 1, 100, 1, protocol="rps"),
        ]
        results = sim.run(trace)
        # Flow 1 arrives second and is water-filled against flow 0 (which
        # keeps its stale 10 bps): flow 1 gets the residual headroom-free
        # fair share.  Both must finish despite no epochs ever firing.
        assert set(results) == {0, 1}
        assert sim.sender_computations == 2

    def test_line_rate_policy_oversubscribes_between_epochs(self, pipe):
        sim = FluidSimulator(
            pipe,
            config=ControllerConfig(
                headroom=0.0,
                recompute_interval_ns=10**12,
                initial_rate_policy="line_rate",
            ),
        )
        trace = [
            FlowArrival(0, 0, 1, 100, 0, protocol="rps"),
            FlowArrival(1, 0, 1, 100, 0, protocol="rps"),
        ]
        results = sim.run(trace)
        # Both blast at 10 bps: the fluid model lets them (queues are the
        # packet simulator's concern) and each finishes in 80 s.
        assert results[0].fct_ns == pytest.approx(80e9, rel=1e-6)
        assert results[1].fct_ns == pytest.approx(80e9, rel=1e-6)
        assert sim.sender_computations == 0

    def test_ideal_mode_ignores_policy(self, pipe):
        for policy in ("local_waterfill", "mean_allocated", "line_rate"):
            sim = FluidSimulator(
                pipe,
                config=ControllerConfig(
                    headroom=0.0, recompute_interval_ns=0, initial_rate_policy=policy
                ),
            )
            results = sim.run([FlowArrival(0, 0, 1, 100, 0, protocol="rps")])
            assert results[0].average_rate_bps == pytest.approx(10.0)
