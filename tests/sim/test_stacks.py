"""Behavioural tests for the three host stacks in the packet simulator."""

import pytest

from repro.congestion import ControllerConfig
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.types import gbps, usec
from repro.workloads import FixedSize, poisson_trace


def small_trace(topology, n_flows=40, tau_ns=20_000, size=200_000, seed=1):
    return poisson_trace(
        topology, n_flows, tau_ns, sizes=FixedSize(size), seed=seed
    )


class TestR2C2Stack:
    def test_all_flows_complete(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d), SimConfig(stack="r2c2"))
        assert metrics.completion_rate() == 1.0
        assert metrics.drops == 0

    def test_bytes_conserved(self, torus2d):
        trace = small_trace(torus2d, n_flows=20)
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2"))
        for flow in metrics.flows:
            assert flow.bytes_received == flow.size_bytes
            assert flow.bytes_sent == flow.size_bytes

    def test_broadcast_traffic_present(self, torus2d):
        trace = small_trace(torus2d, n_flows=20)
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2"))
        # Two events per flow, one 16-byte packet per tree edge (15 on a
        # 16-node rack).
        assert metrics.broadcast_packets == 2 * 20 * 15
        assert metrics.broadcast_bytes == metrics.broadcast_packets * 16

    def test_rate_limiting_caps_queues(self, torus2d):
        # After the first epoch, senders respect allocations: queues stay
        # far below a line-rate-blast scenario.
        trace = small_trace(torus2d, n_flows=60, tau_ns=30_000, size=500_000)
        metrics = run_simulation(
            torus2d, trace, SimConfig(
                stack="r2c2",
                controller=ControllerConfig(recompute_interval_ns=usec(100)),
            ),
        )
        assert metrics.queue_occupancy_percentile_kb(99) < 200

    def test_headroom_zero_allowed(self, torus2d):
        metrics = run_simulation(
            torus2d,
            small_trace(torus2d, 10),
            SimConfig(stack="r2c2", controller=ControllerConfig(headroom=0.0)),
        )
        assert metrics.completion_rate() == 1.0

    def test_reordering_measured(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d, 20), SimConfig())
        # Multi-path spraying must cause at least some reordering.
        assert any(f.max_reorder_buffer > 0 for f in metrics.completed_flows())

    def test_strawman_mode(self, torus2d):
        # ρ = 0 recomputes on every flow event (the §3.3.1 strawman).
        metrics = run_simulation(
            torus2d,
            small_trace(torus2d, 10),
            SimConfig(
                stack="r2c2",
                controller=ControllerConfig(recompute_interval_ns=0),
            ),
        )
        assert metrics.completion_rate() == 1.0

    def test_zero_interval_recomputes_at_every_flow_event(self, torus2d):
        # ρ = 0 has no epochs, so the young-flow exemption must be off too:
        # otherwise every flow would keep its arrival-time rate for life.
        metrics = run_simulation(
            torus2d,
            small_trace(torus2d, 30),
            SimConfig(
                stack="r2c2",
                controller=ControllerConfig(recompute_interval_ns=0),
            ),
        )
        assert metrics.completion_rate() == 1.0
        assert metrics.epochs_recomputed == 2 * 30  # one per start, one per finish


class TestTcpStack:
    def test_all_flows_complete(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d), SimConfig(stack="tcp"))
        assert metrics.completion_rate() == 1.0

    def test_ack_traffic_counted(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d, 10), SimConfig(stack="tcp"))
        assert metrics.ack_bytes > 0

    def test_recovers_from_drops(self):
        # Converging 300 kB flows on 1 Gb/s links overflow the drop-tail
        # queues; TCP must still complete all flows.
        topo = TorusTopology((3, 3), capacity_bps=gbps(1))
        trace = small_trace(topo, n_flows=12, tau_ns=5_000, size=300_000, seed=3)
        metrics = run_simulation(topo, trace, SimConfig(stack="tcp"))
        assert metrics.drops > 0
        assert metrics.completion_rate() == 1.0

    def test_single_path_no_reordering_buffers(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d, 15), SimConfig(stack="tcp"))
        # Without drops, single-path TCP delivers in order.
        if metrics.drops == 0:
            assert all(f.max_reorder_buffer == 0 for f in metrics.completed_flows())


class TestPfqStack:
    def test_all_flows_complete(self, torus2d):
        metrics = run_simulation(torus2d, small_trace(torus2d), SimConfig(stack="pfq"))
        assert metrics.completion_rate() == 1.0
        assert metrics.drops == 0

    def test_backpressure_bounds_queues(self, torus2d):
        # Back-pressure keeps per-port queues to a few packets per flow.
        trace = small_trace(torus2d, n_flows=40, tau_ns=10_000, size=400_000)
        metrics = run_simulation(torus2d, trace, SimConfig(stack="pfq"))
        assert metrics.queue_occupancy_percentile_kb(99) < 150

    def test_two_flow_fairness(self):
        # Two long flows sharing one bottleneck link split it evenly.
        from repro.workloads import FlowArrival

        topo = TorusTopology((3, 3), capacity_bps=gbps(1))
        trace = [
            FlowArrival(0, 0, 1, 400_000, 0),
            FlowArrival(1, 3, 1, 400_000, 0),
        ]
        metrics = run_simulation(topo, trace, SimConfig(stack="pfq"))
        rates = sorted(
            f.average_throughput_bps() for f in metrics.completed_flows()
        )
        assert rates[0] / rates[1] > 0.55


class TestStackOrdering:
    """The headline qualitative result: PFQ <= R2C2 << TCP for tail FCT."""

    def test_fct_ordering(self, torus2d):
        trace = poisson_trace(
            torus2d, 150, 5_000, sizes=FixedSize(60_000), seed=42
        )
        results = {}
        for stack in ("r2c2", "tcp", "pfq"):
            metrics = run_simulation(torus2d, trace, SimConfig(stack=stack, seed=2))
            assert metrics.completion_rate() == 1.0
            results[stack] = metrics.fct_percentile_us(99)
        assert results["r2c2"] < results["tcp"]
        assert results["pfq"] <= results["r2c2"] * 1.5
