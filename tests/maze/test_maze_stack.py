"""Focused tests for the Maze R2C2 user-space stack."""

import pytest

from repro.broadcast import BroadcastFib
from repro.congestion.controller import ControllerConfig, RateController
from repro.maze import MazePlatform, MazeR2C2Stack
from repro.sim.flows import SimFlow
from repro.sim.metrics import SimMetrics
from repro.topology import TorusTopology
from repro.types import gbps, usec
from repro.workloads import FlowArrival


@pytest.fixture
def setup():
    topo = TorusTopology((3, 3), capacity_bps=gbps(5))
    fib = BroadcastFib(topo, n_trees=2, seed=0)
    platform = MazePlatform(topo, fib=fib, step_ns=500, slot_bytes=9 * 1024)
    controller = RateController(
        topo, 0, config=ControllerConfig(recompute_interval_ns=usec(100))
    )
    flows = {}
    metrics = SimMetrics()
    stacks = [
        MazeR2C2Stack(n, platform, controller, fib, flows, 8192, 0, metrics)
        for n in topo.nodes()
    ]
    return topo, platform, controller, flows, stacks, metrics


class TestMazeStack:
    def test_start_flow_announces_and_paces(self, setup):
        topo, platform, controller, flows, stacks, metrics = setup
        flow = SimFlow(FlowArrival(0, 0, 4, 100_000, 0))
        flows[0] = flow
        stacks[0].start_flow(flow, now_ns=0)
        assert controller.table.get(0) is not None

        def drive(now):
            for s in stacks:
                s.set_time_hint(now)
                s.pump(now)

        platform.add_step_hook(drive)
        platform.run_until(lambda: flow.completed, max_ns=5_000_000)
        assert flow.completed
        assert flow.bytes_received == 100_000
        # The finish was announced and the table cleaned up.
        assert controller.table.get(0) is None
        # Broadcast deliveries were counted (start at 8 remote nodes, plus
        # finish).
        assert metrics.broadcast_packets >= 8

    def test_rates_refresh_on_epoch(self, setup):
        topo, platform, controller, flows, stacks, metrics = setup
        flow = SimFlow(FlowArrival(0, 0, 4, 10_000_000, 0))
        flows[0] = flow
        stacks[0].start_flow(flow, now_ns=0)
        controller.recompute(usec(100))
        stacks[0].refresh_rates(usec(100))
        bucket = stacks[0]._buckets[0]
        assert bucket.rate_bps == pytest.approx(controller.rate_for(0))

    def test_wrong_source_rejected(self, setup):
        topo, platform, controller, flows, stacks, metrics = setup
        from repro.errors import EmulationError

        flow = SimFlow(FlowArrival(1, 3, 4, 1000, 0))
        with pytest.raises(EmulationError):
            stacks[0].start_flow(flow, now_ns=0)

    def test_broadcast_bytes_are_wire_accurate(self, setup):
        topo, platform, controller, flows, stacks, metrics = setup
        flow = SimFlow(FlowArrival(0, 0, 4, 10_000, 0))
        flows[0] = flow
        stacks[0].start_flow(flow, now_ns=0)

        def drive(now):
            for s in stacks:
                s.set_time_hint(now)
                s.pump(now)

        platform.add_step_hook(drive)
        platform.run_until(lambda: flow.completed, max_ns=5_000_000)
        # Each broadcast delivery is a real 16-byte packet.
        assert metrics.broadcast_bytes == metrics.broadcast_packets * 16
