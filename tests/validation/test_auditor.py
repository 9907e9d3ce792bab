"""The runtime invariant auditor: clean runs stay silent, injected bugs
are caught at the layer they corrupt."""

import pytest

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.errors import InvariantViolation
from repro.sim import (
    EventLoop,
    KIND_DATA,
    RackNetwork,
    SimConfig,
    SimPacket,
    run_simulation,
)
from repro.sim.probe import SimProbe
from repro.topology import TorusTopology
from repro.types import gbps
from repro.validation import InvariantAuditor
from repro.workloads import FlowArrival

pytestmark = pytest.mark.validation


def _trace(topology, n=4, size=200_000):
    return [
        FlowArrival(
            flow_id=i,
            src=i,
            dst=(i + topology.n_nodes // 2) % topology.n_nodes,
            size_bytes=size,
            start_ns=i * 1000,
        )
        for i in range(n)
    ]


class TestCleanRuns:
    @pytest.mark.parametrize("stack", ["r2c2", "tcp", "pfq"])
    def test_audited_run_is_clean(self, stack):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        metrics = run_simulation(
            topo,
            _trace(topo),
            SimConfig(stack=stack, mtu_payload=8192, audit=True),
        )
        report = metrics.audit
        assert report is not None and report.ok
        assert report.events > 0
        assert report.packets_accepted > 0
        assert report.packets_propagated == report.packets_arrived
        assert report.flow_checks > 0
        assert all(f.completed for f in metrics.flows)

    def test_per_node_control_plane_allocations_audited(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        metrics = run_simulation(
            topo,
            _trace(topo),
            SimConfig(
                stack="r2c2",
                mtu_payload=8192,
                audit=True,
                control_plane="per_node",
            ),
        )
        assert metrics.audit.ok
        assert metrics.audit.allocations_audited >= topo.n_nodes

    def test_unaudited_run_carries_no_report(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        metrics = run_simulation(
            topo, _trace(topo, n=2), SimConfig(stack="r2c2", mtu_payload=8192)
        )
        assert metrics.audit is None


class TestInjectedCapacityBug:
    """A deliberately broken allocator must not slip past the auditor."""

    def _tampered_allocation(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        provider = WeightProvider(topo)
        specs = [FlowSpec(0, 0, 4, "ecmp"), FlowSpec(1, 1, 5, "ecmp")]
        allocation = waterfill(topo, specs, provider, headroom=0.05)
        # The injected bug: an allocator that hands out double rates while
        # believing the same link loads fit the same capacities.
        allocation.rates_bps = {f: 2 * r for f, r in allocation.rates_bps.items()}
        allocation.link_load_bps = allocation.link_load_bps * 2.0
        return allocation

    def test_strict_mode_raises(self):
        auditor = InvariantAuditor(strict=True)
        with pytest.raises(InvariantViolation, match="exceeds"):
            auditor.audit_allocation(self._tampered_allocation())

    def test_collecting_mode_records(self):
        auditor = InvariantAuditor(strict=False)
        auditor.audit_allocation(self._tampered_allocation())
        report = auditor.report()
        assert not report.ok
        assert any("capacity" in v for v in report.violations)

    def test_negative_rate_rejected(self):
        allocation = self._tampered_allocation()
        allocation.rates_bps[0] = -1.0
        auditor = InvariantAuditor(strict=False)
        auditor.audit_allocation(allocation)
        assert any("invalid rate" in v for v in auditor.violations)

    def test_headroom_respecting_allocation_passes(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        provider = WeightProvider(topo)
        specs = [FlowSpec(i, i, (i + 4) % 9, "rps") for i in range(6)]
        allocation = waterfill(topo, specs, provider, headroom=0.05)
        auditor = InvariantAuditor(strict=True)
        auditor.audit_allocation(allocation)
        assert auditor.report().ok


class TestInjectedDataPlaneBug:
    def test_double_start_serialization_overlap_caught(self):
        """A scheduler bug that starts a second serialization while the
        transmitter is busy is exactly "link above line rate"."""
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        loop = EventLoop()
        auditor = InvariantAuditor(strict=True)
        network = RackNetwork(loop, topo, probe=SimProbe(loop, auditor=auditor))
        port = network.port(0, 1)
        port.send(SimPacket(KIND_DATA, 0, 0, 1, 0, 8000, path=(0, 1)))
        port.send(SimPacket(KIND_DATA, 0, 0, 1, 1, 8000, path=(0, 1)))
        assert port.busy
        with pytest.raises(InvariantViolation, match="line rate"):
            # the injected bug: starts the waiting packet before _free_at
            port._start(port.queue.dequeue(), port._loop.now)

    def test_normal_back_to_back_sends_are_fine(self):
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        loop = EventLoop()
        auditor = InvariantAuditor(strict=True)
        network = RackNetwork(loop, topo, probe=SimProbe(loop, auditor=auditor))

        class Sink:
            def deliver(self, packet):
                pass

        network.stack_at[1] = Sink()
        for seq in range(5):
            network.port(0, 1).send(
                SimPacket(KIND_DATA, 0, 0, 1, seq, 8000, path=(0, 1))
            )
        loop.run()
        report = auditor.final_check()
        assert report.ok
        assert report.packets_accepted == 5
        assert report.packets_arrived == 5

    def _mid_serialization(self):
        """Three packets sent back to back, the run stopped while the
        second is on the wire (a packet's outcome is reported when its
        serialization starts)."""
        topo = TorusTopology((3, 3), capacity_bps=gbps(10))
        loop = EventLoop()
        auditor = InvariantAuditor(strict=False)
        network = RackNetwork(loop, topo, probe=SimProbe(loop, auditor=auditor))
        port = network.port(0, 1)
        for seq in range(3):
            port.send(SimPacket(KIND_DATA, 0, 0, 1, seq, 8000, path=(0, 1)))
        loop.run(until_ns=port._free_at + 1)
        return auditor, port

    def test_conservation_holds_mid_serialization(self):
        auditor, port = self._mid_serialization()
        assert port.busy and len(port.queue) == 1
        report = auditor.final_check(drained=False)
        assert report.ok, report.violations
        assert report.packets_propagated == 2

    def test_busy_disagreeing_with_the_serialization_window_is_caught(self):
        auditor, port = self._mid_serialization()
        port._free_at = port._loop.now  # the port claims it is idle
        report = auditor.final_check(drained=False)
        assert any("in-service 0" in v for v in report.violations)


class TestEventCausality:
    def test_clock_regression_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_event(10, 0, 0)
        auditor.on_event(5, 0, 1)
        assert any("backwards" in v for v in auditor.violations)

    def test_fifo_tie_break_violation_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_event(10, 0, 5)
        auditor.on_event(10, 0, 4)
        assert any("FIFO" in v for v in auditor.violations)

    def test_priority_tie_break_violation_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_event(10, 7, 4)
        auditor.on_event(10, 3, 5)
        assert any("FIFO" in v for v in auditor.violations)

    def test_priority_orders_before_sequence(self):
        auditor = InvariantAuditor(strict=True)
        auditor.on_event(10, 3, 9)
        auditor.on_event(10, 7, 2)  # higher priority may carry a lower seq
        assert auditor.report().ok

    def test_ordered_events_pass(self):
        auditor = InvariantAuditor(strict=True)
        auditor.on_event(10, 0, 0)
        auditor.on_event(10, 0, 1)
        auditor.on_event(12, 0, 2)
        assert auditor.report().ok


class TestFlowMonotonicity:
    class _Flow:
        def __init__(self, flow_id, bytes_received, completed_ns, start_ns=0):
            self.flow_id = flow_id
            self.bytes_received = bytes_received
            self.completed_ns = completed_ns
            self.start_ns = start_ns

    def test_shrinking_bytes_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_flow_progress(self._Flow(1, 1000, None), 10)
        auditor.on_flow_progress(self._Flow(1, 900, None), 20)
        assert any("shrank" in v for v in auditor.violations)

    def test_completion_rewrite_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_flow_progress(self._Flow(1, 1000, 50), 50)
        auditor.on_flow_progress(self._Flow(1, 1000, 60), 60)
        assert any("completion time changed" in v for v in auditor.violations)

    def test_completion_before_start_caught(self):
        auditor = InvariantAuditor(strict=False)
        auditor.on_flow_progress(self._Flow(1, 1000, 5, start_ns=10), 20)
        assert any("before it started" in v for v in auditor.violations)

    def test_disabled_auditor_is_silent(self):
        auditor = InvariantAuditor(strict=True)
        auditor.enabled = False
        auditor.on_flow_progress(self._Flow(1, 1000, 5, start_ns=10), 20)
        auditor.on_event(10, 0, 5)
        auditor.on_event(5, 0, 4)
        assert auditor.report().ok
