"""The §3.2 broadcast drop/retransmit path, exercised in the simulator.

With finite port queues and a bursty workload, broadcast packets get
dropped at congested intermediate nodes; the dropping node sends a
notification to the source, which retransmits on another tree.  Per-node
control tables must still converge on the events that matter.
"""

import pytest

from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, poisson_trace


def _shared_plane(loop, network, topo):
    """The simulator's control plane in shared mode: one controller for
    every node, as ``SimConfig(control_plane="shared")`` builds it."""
    from repro.congestion.controller import ControllerConfig
    from repro.congestion.linkweights import WeightProvider
    from repro.sim.stacks.r2c2 import PerNodeControlPlane

    return PerNodeControlPlane(
        loop, network, topo, WeightProvider(topo), ControllerConfig(), shared=True
    )


class TestBroadcastDropRecovery:
    def test_unbounded_queues_never_drop(self, torus2d):
        trace = poisson_trace(torus2d, 40, 10_000, sizes=FixedSize(60_000), seed=5)
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2", seed=5))
        assert metrics.drops == 0

    def test_drops_trigger_retransmission(self):
        # A slow fabric with tiny queues and a burst of simultaneous flows:
        # broadcasts compete with data and some are dropped.
        topo = TorusTopology((3, 3), capacity_bps=gbps(1))
        trace = poisson_trace(topo, 60, 500, sizes=FixedSize(30_000), seed=7)
        metrics = run_simulation(
            topo,
            trace,
            SimConfig(stack="r2c2", queue_limit_bytes=4_000, seed=7),
        )
        assert metrics.drops > 0  # something was dropped somewhere
        # Completion must survive data-packet drops?  No: the plain stack
        # has no data retransmission.  The invariant under test is that the
        # run stays sane and drop notifications flowed (they are data-plane
        # packets and show up in total bytes).
        assert metrics.total_bytes_on_wire > 0

    def test_retransmission_counter_exposed(self):
        # Drive the stack API directly to assert the §3.2 machinery.
        from repro.broadcast import BroadcastFib
        from repro.sim import EventLoop, RackNetwork, SimPacket
        from repro.sim.flows import SimFlow
        from repro.sim.packets import KIND_DROP_NOTE
        from repro.sim.stacks.r2c2 import R2C2Stack
        from repro.workloads import FlowArrival

        topo = TorusTopology((3, 3))
        loop = EventLoop()
        fib = BroadcastFib(topo, n_trees=2)
        network = RackNetwork(loop, topo, fib=fib)
        control = _shared_plane(loop, network, topo)
        flows = {}
        stacks = [
            R2C2Stack(n, loop, network, control, flows, n_trees=2)
            for n in topo.nodes()
        ]
        for n in topo.nodes():
            network.stack_at[n] = stacks[n]
        flow = SimFlow(FlowArrival(0, 0, 4, 3_000, 0))
        flows[0] = flow
        stacks[0].start_flow(flow)
        loop.run()
        assert stacks[0].broadcast_retransmissions == 0

        # Deliver a forged drop notification for the start broadcast
        # (seq 0): the source must retransmit it.
        before = loop.events_processed
        note = SimPacket(
            kind=KIND_DROP_NOTE,
            flow_id=0,
            src=5,
            dst=0,
            seq=0,
            size_bytes=10,
            path=(5, 0),
        )
        stacks[0].deliver(note)
        assert stacks[0].broadcast_retransmissions == 1
        loop.run()
        assert loop.events_processed > before  # the re-broadcast traveled

    def test_unknown_seq_ignored(self):
        from repro.broadcast import BroadcastFib
        from repro.sim import EventLoop, RackNetwork, SimPacket
        from repro.sim.packets import KIND_DROP_NOTE
        from repro.sim.stacks.r2c2 import R2C2Stack

        topo = TorusTopology((3, 3))
        loop = EventLoop()
        network = RackNetwork(loop, topo, fib=BroadcastFib(topo))
        control = _shared_plane(loop, network, topo)
        stack = R2C2Stack(0, loop, network, control, {})
        stack.deliver(
            SimPacket(KIND_DROP_NOTE, 0, 5, 0, seq=999, size_bytes=10, path=(5, 0))
        )
        assert stack.broadcast_retransmissions == 0


class TestSharedPlaneReannounce:
    def test_reannounce_refreshes_without_readmitting(self):
        """§3.2 under the shared plane: one START broadcast per ongoing
        flow, the table's contents unchanged, no young-flow rate re-pinned."""
        from repro.broadcast import BroadcastFib
        from repro.sim import KIND_BROADCAST, EventLoop, RackNetwork
        from repro.sim.flows import SimFlow
        from repro.sim.stacks.r2c2 import R2C2Stack
        from repro.wire.packets import EVENT_FLOW_START
        from repro.workloads import FlowArrival

        topo = TorusTopology((3, 3))
        loop = EventLoop()
        network = RackNetwork(loop, topo, fib=BroadcastFib(topo, n_trees=2))
        control = _shared_plane(loop, network, topo)
        (controller,) = control.controllers
        flows = {}
        stacks = [R2C2Stack(n, loop, network, control, flows, n_trees=2) for n in topo.nodes()]
        network.stack_at[:] = stacks
        # Two long flows over one pair: the second's admission fill splits
        # the path, the first keeps the rate pinned when it started alone.
        for flow_id in (0, 1):
            flows[flow_id] = SimFlow(FlowArrival(flow_id, 0, 4, 10_000_000, 0))
            stacks[0].start_flow(flows[flow_id])
        loop.run_until(50_000)
        rates = [control.rate_for(flow_id, 0) for flow_id in (0, 1)]
        assert rates[0] > rates[1]
        key = controller.table.content_key

        injected = []
        inject = network.inject

        def recording_inject(node, packet):
            injected.append((node, packet))
            return inject(node, packet)

        network.inject = recording_inject
        assert sum(stack.reannounce_ongoing() for stack in stacks) == 2
        announced = [
            (node, packet.payload[0], packet.payload[1].flow_id)
            for node, packet in injected
            if packet.kind == KIND_BROADCAST
        ]
        assert announced == [(0, EVENT_FLOW_START, 0), (0, EVENT_FLOW_START, 1)]
        assert controller.table.content_key == key
        assert [control.rate_for(flow_id, 0) for flow_id in (0, 1)] == rates
        loop.run_until(loop.now + 50_000)  # the re-broadcasts travel the fabric
        assert len(injected) > len(announced)  # pacing went on meanwhile


@pytest.mark.validation
class TestLinkFailureReannounce:
    """§3.2: after topology discovery reports a failure, every node
    re-announces its ongoing flows so rebuilt tables reconverge."""

    def _build(self, topo, seed=0):
        from repro.broadcast import BroadcastFib
        from repro.congestion.controller import ControllerConfig
        from repro.congestion.linkweights import WeightProvider
        from repro.sim import EventLoop, RackNetwork
        from repro.sim.stacks.r2c2 import PerNodeControlPlane, R2C2Stack

        loop = EventLoop()
        fib = BroadcastFib(topo, n_trees=2, seed=seed)
        network = RackNetwork(loop, topo, fib=fib)
        control = PerNodeControlPlane(
            loop, network, topo, WeightProvider(topo), ControllerConfig()
        )
        flows = {}
        stacks = [
            R2C2Stack(n, loop, network, control, flows, n_trees=2, seed=seed)
            for n in topo.nodes()
        ]
        for n in topo.nodes():
            network.stack_at[n] = stacks[n]
        return loop, network, control, stacks, flows

    def test_reannounce_restores_rebuilt_tables(self):
        from repro.sim.flows import SimFlow
        from repro.validation import FaultInjector
        from repro.workloads import FlowArrival

        topo = TorusTopology((3, 3))
        loop, network, control, stacks, flows = self._build(topo)
        # Two long (ongoing) flows from different sources.
        for flow_id, (src, dst) in enumerate([(0, 4), (2, 7)]):
            flow = SimFlow(FlowArrival(flow_id, src, dst, 10_000_000, 0))
            flows[flow_id] = flow
            stacks[src].start_flow(flow)
        loop.run_until(50_000)
        assert all(0 in c.table and 1 in c.table for c in control.controllers)

        # A link fails; discovery reports it and tables are rebuilt from
        # scratch on every node (the paper's worst-case recovery).
        injector = FaultInjector(seed=1)
        degraded, failed = injector.fail_links(topo, 2)
        assert injector.recovery.failed_links == set(failed)
        for controller in control.controllers:
            for flow_id in [f.flow_id for f in controller.table.snapshot()]:
                controller.table.remove(flow_id)
        assert all(len(c.table) == 0 for c in control.controllers)

        # Every node re-announces its ongoing flows; the re-broadcasts
        # travel as real packets and rebuild every table.
        reannounced = sum(stack.reannounce_ongoing() for stack in stacks)
        assert reannounced == 2
        loop.run_until(loop.now + 100_000)
        assert all(0 in c.table and 1 in c.table for c in control.controllers)

    def test_reannounce_skips_finished_flows(self):
        from repro.sim.flows import SimFlow
        from repro.workloads import FlowArrival

        topo = TorusTopology((3, 3))
        loop, network, control, stacks, flows = self._build(topo)
        flow = SimFlow(FlowArrival(0, 0, 4, 3_000, 0))  # tiny: finishes fast
        flows[0] = flow
        stacks[0].start_flow(flow)
        loop.run()
        assert flow.completed
        assert stacks[0].reannounce_ongoing() == 0

    def test_broadcasts_cover_degraded_fabric(self):
        """Trees rebuilt on the failure view still reach every node."""
        from repro.broadcast import BroadcastFib
        from repro.sim import EventLoop, KIND_BROADCAST, RackNetwork, SimPacket
        from repro.validation import FaultInjector

        topo = TorusTopology((3, 3))
        degraded, _ = FaultInjector(seed=4).fail_links(topo, 3)
        assert degraded.is_connected()
        loop = EventLoop()
        network = RackNetwork(loop, degraded, fib=BroadcastFib(degraded, n_trees=2))

        class Sink:
            def __init__(self):
                self.received = []

            def deliver(self, packet):
                self.received.append(packet)

        sinks = [Sink() for _ in degraded.nodes()]
        for node in degraded.nodes():
            network.stack_at[node] = sinks[node]
        network.inject(0, SimPacket(KIND_BROADCAST, 0, 0, 0, 0, 16, tree_id=1))
        loop.run()
        assert all(len(s.received) == 1 for s in sinks)
