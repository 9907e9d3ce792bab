"""Simulator tests for the reliability transport and host-limited flows."""

import pytest

from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.workloads import FixedSize, FlowArrival, ParetoSizes, poisson_trace


class TestReliableStack:
    def test_lossless_equivalence(self, torus2d):
        trace = poisson_trace(torus2d, 40, 15_000, sizes=FixedSize(60_000), seed=2)
        plain = run_simulation(torus2d, trace, SimConfig(stack="r2c2", seed=2))
        reliable = run_simulation(
            torus2d, trace, SimConfig(stack="r2c2", reliable=True, seed=2)
        )
        assert plain.completion_rate() == 1.0
        assert reliable.completion_rate() == 1.0
        # Without loss, the reliability layer costs only ACK bandwidth.
        assert reliable.ack_bytes > 0
        assert reliable.fct_percentile_us(99) < plain.fct_percentile_us(99) * 2.5

    def test_recovers_all_bytes_under_loss(self, torus2d):
        trace = poisson_trace(torus2d, 50, 15_000, sizes=FixedSize(60_000), seed=4)
        metrics = run_simulation(
            torus2d,
            trace,
            SimConfig(stack="r2c2", reliable=True, loss_rate=0.03, seed=4),
        )
        assert metrics.wire_losses > 0
        assert metrics.completion_rate() == 1.0
        for flow in metrics.flows:
            assert flow.bytes_received == flow.size_bytes

    def test_unreliable_stack_loses_flows_under_loss(self, torus2d):
        trace = poisson_trace(torus2d, 50, 15_000, sizes=FixedSize(60_000), seed=4)
        metrics = run_simulation(
            torus2d,
            trace,
            SimConfig(stack="r2c2", reliable=False, loss_rate=0.03, seed=4),
        )
        assert metrics.completion_rate() < 1.0  # the contrast that motivates §6

    def test_retransmissions_counted(self, torus2d):
        trace = poisson_trace(torus2d, 30, 15_000, sizes=FixedSize(60_000), seed=5)
        metrics = run_simulation(
            torus2d,
            trace,
            SimConfig(stack="r2c2", reliable=True, loss_rate=0.05, seed=5),
        )
        assert metrics.completion_rate() == 1.0
        # bytes on the wire exceed unique payload: retransmissions happened.
        unique_payload = sum(f.size_bytes for f in metrics.flows)
        assert metrics.data_bytes_on_wire > unique_payload

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_queue_drop_note_is_acted_on(self, torus2d, seed):
        """A 1,535-byte data packet fills the queue, so a 16-byte broadcast
        behind it is dropped and a drop note (§3.2) goes back to its source.
        The reliable stack used to die on it: ``unexpected packet kind 4``."""
        sizes = ParetoSizes(mean_bytes=50 * 1024, shape=1.05, cap_bytes=500_000)
        trace = poisson_trace(torus2d, 60, 2000, sizes, seed=seed)
        telemetry = Telemetry(TelemetryConfig(metrics=True, trace=False))
        metrics = run_simulation(
            torus2d,
            trace,
            SimConfig(
                stack="r2c2",
                reliable=True,
                queue_limit_bytes=1539,
                horizon_ns=5_000_000,
                audit=True,
                seed=seed,
            ),
            telemetry=telemetry,
        )
        assert metrics.drops > 0
        assert metrics.completion_rate() == 1.0
        assert metrics.audit.ok, metrics.audit.violations
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["broadcast.retransmissions"] > 0  # acted on, not swallowed

    def test_loss_rate_validation(self, torus2d):
        from repro.errors import SimulationError
        from repro.sim import EventLoop, RackNetwork

        with pytest.raises(SimulationError):
            RackNetwork(EventLoop(), torus2d, loss_rate=1.5)


class TestHostLimitedFlows:
    def test_app_rate_caps_throughput(self, torus2d):
        trace = [FlowArrival(0, 0, 10, 1_000_000, 0, app_rate_bps=2e9)]
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2"))
        flow = metrics.completed_flows()[0]
        assert flow.average_throughput_bps() == pytest.approx(2e9, rel=0.1)

    def test_demand_updates_free_capacity(self, torus2d):
        # A host-limited and a network-limited flow share node 1's links;
        # after demand estimation kicks in, the network-limited flow gets
        # far more than a naive 50/50 split.
        trace = [
            FlowArrival(0, 0, 1, 3_000_000, 0, app_rate_bps=1e9),
            FlowArrival(1, 4, 1, 3_000_000, 0),
        ]
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2", seed=1))
        tputs = {
            f.flow_id: f.average_throughput_bps() for f in metrics.completed_flows()
        }
        assert tputs[0] == pytest.approx(1e9, rel=0.15)
        assert tputs[1] > 2.5 * tputs[0]

    def test_demand_broadcasts_emitted(self, torus2d):
        trace = [
            FlowArrival(0, 0, 1, 3_000_000, 0, app_rate_bps=1e9),
            FlowArrival(1, 4, 1, 3_000_000, 0),
        ]
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2", seed=1))
        # start + finish per flow = 4 x 15 deliveries; anything beyond that
        # is demand-update traffic.
        base = 4 * (torus2d.n_nodes - 1)
        assert metrics.broadcast_packets > base

    def test_produced_bytes_model(self):
        flow_arrival = FlowArrival(0, 0, 1, 1000, 100, app_rate_bps=8e9)
        from repro.sim.flows import SimFlow

        flow = SimFlow(flow_arrival)
        assert flow.produced_bytes(100) == 0
        assert flow.produced_bytes(600) == 500  # 8 Gbps = 1 B/ns
        assert flow.produced_bytes(10_000) == 1000  # capped at size

    def test_network_limited_produces_everything(self):
        from repro.sim.flows import SimFlow

        flow = SimFlow(FlowArrival(0, 0, 1, 1000, 100))
        assert flow.produced_bytes(0) == 1000
