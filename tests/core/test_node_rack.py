"""Tests for the per-node control plane and the Rack facade."""

import math

import pytest

from repro.congestion import ControllerConfig
from repro.core import Rack
from repro.errors import ReproError, RoutingError
from repro.routing.base import protocol_class
from repro.types import usec
from repro.wire import RouteUpdatePacket


class TestRackFlows:
    def test_tables_converge(self, torus2d):
        rack = Rack(torus2d)
        rack.start_flow(0, 5)
        rack.start_flow(3, 9, protocol="vlb", weight=2.0)
        assert rack.tables_consistent()
        assert len(rack.active_flows()) == 2

    def test_rates_respect_weights(self, torus2d):
        rack = Rack(torus2d)
        a = rack.start_flow(0, 5, weight=1.0)
        b = rack.start_flow(0, 5, weight=3.0)
        rack.recompute_all()
        rates = rack.rates()
        assert rates[b] / rates[a] == pytest.approx(3.0)

    def test_finish_removes_everywhere(self, torus2d):
        rack = Rack(torus2d)
        fid = rack.start_flow(0, 5)
        rack.finish_flow(fid)
        assert rack.tables_consistent()
        assert rack.active_flows() == []

    def test_self_flow_rejected(self, torus2d):
        with pytest.raises(ReproError):
            Rack(torus2d).start_flow(2, 2)

    def test_unknown_flow_rejected(self, torus2d):
        with pytest.raises(ReproError):
            Rack(torus2d).finish_flow(99)

    def test_demand_update_propagates(self, torus2d):
        rack = Rack(torus2d)
        fid = rack.start_flow(0, 5)
        rack.update_demand(fid, 1e9)
        for node in rack.nodes:
            assert node.controller.table.get(fid).demand_bps == pytest.approx(1e9)
        rack.recompute_all()
        assert rack.rate_of(fid) == pytest.approx(1e9)

    def test_weight_quantization_consistent(self, torus2d):
        # Weights cross the wire as sixteenths; every node (including the
        # sender, which keeps what its packet decodes to) must compute the
        # same rates, so the round-trip is lossless for representable values.
        rack = Rack(torus2d)
        fid = rack.start_flow(0, 5, weight=2.5)
        views = {node.controller.table.get(fid).weight for node in rack.nodes}
        assert views == {2.5}

    def test_control_bytes_accounted(self, torus2d):
        rack = Rack(torus2d)
        rack.start_flow(0, 5)
        assert rack.control_bytes_on_wire == 15 * 16


class TestEpochs:
    def test_advance_time_triggers_epochs(self, torus2d):
        rack = Rack(torus2d, ControllerConfig(recompute_interval_ns=usec(100)))
        fid = rack.start_flow(0, 5)
        assert rack.now_ns == 0
        allocations = rack.advance_time(usec(100))
        assert rack.now_ns == usec(100)
        assert len(allocations) == torus2d.n_nodes
        assert rack.rate_of(fid) > 0

    def test_no_epoch_before_interval(self, torus2d):
        rack = Rack(torus2d, ControllerConfig(recompute_interval_ns=usec(100)))
        rack.start_flow(0, 5)
        assert rack.advance_time(usec(50)) == []

    def test_time_cannot_reverse(self, torus2d):
        with pytest.raises(ReproError):
            Rack(torus2d).advance_time(-1)


def _line_rack(rho_ns, weight=1.0):
    """Two ecmp flows into node 2 of a 3-node line share its one 10 Gb/s
    link: A (0 -> 2, *weight*) and B (1 -> 2)."""
    from repro.topology import MeshTopology

    rack = Rack(
        MeshTopology((3,)),
        ControllerConfig(headroom=0.0, recompute_interval_ns=rho_ns),
    )
    a = rack.start_flow(0, 2, protocol="ecmp", weight=weight)
    b = rack.start_flow(1, 2, protocol="ecmp")
    return rack, a, b


class TestLearnedFlows:
    """Node 0 learns flow B from B's broadcast."""

    def test_rho_zero_recomputes_when_a_start_is_learned(self):
        rack, a, b = _line_rack(0)
        assert rack.rate_of(a) == rack.rate_of(b) == 5e9

    def test_batched_rates_converge_at_the_epoch(self):
        rack, a, b = _line_rack(usec(500))
        assert rack.rate_of(a) == 10e9  # young until the epoch covers B
        rack.advance_time(usec(500))
        assert rack.rate_of(a) == rack.rate_of(b) == 5e9


class TestSenderAllocatesFromTheWire:
    """A sender keeps exactly the spec its broadcast decodes to, so it and
    its peers water-fill over the same table (§3.3)."""

    def test_sub_mbps_demand_rides_the_wire_floor(self):
        from repro.topology import TorusTopology

        rack = Rack(TorusTopology((3, 3)))
        fid = rack.start_flow(0, 4)
        rack.update_demand(fid, 0.3e6)  # used to decode as 0 Mbps and raise
        assert {n.controller.table.get(fid).demand_bps for n in rack.nodes} == {1e6}
        assert rack.tables_consistent()

    def test_unquantized_weight_is_the_same_everywhere(self):
        rack, a, b = _line_rack(0, weight=1.7)
        assert {n.controller.table.get(a).weight for n in rack.nodes} == {1.6875}
        assert rack.tables_consistent()
        # The two senders used to fill with 1.7 and 1.6875 and overbook
        # node 2's one link: 6.296 + 3.721 Gb/s.
        assert rack.rate_of(a) + rack.rate_of(b) <= 10e9

    def test_tables_consistent_compares_demand(self):
        rack, a, _b = _line_rack(0)
        rack.nodes[2].controller.on_demand_update(a, 2e9)  # a view no broadcast made
        assert not rack.tables_consistent()

    def test_a_value_the_wire_cannot_carry_is_refused(self, torus2d):
        from repro.errors import WireFormatError

        rack = Rack(torus2d)
        for kwargs in ({"weight": 16.0}, {"weight": 0.01}, {"priority": 256}):
            with pytest.raises(WireFormatError):
                rack.start_flow(0, 5, **kwargs)


class TestOneFillPerView:
    """A rack's nodes share one allocation memo and remote nodes only store
    a flow start, so the rack pays one water-fill per distinct table view
    rather than one per node."""

    @staticmethod
    def count_fills(monkeypatch):
        import repro.congestion.controller as controller_module

        calls = []
        real = controller_module.waterfill

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(controller_module, "waterfill", counting)
        return calls

    def test_epoch_fills_once(self, torus3d, monkeypatch):
        rack = Rack(torus3d)
        rack.start_flow(0, 42)
        rack.start_flow(1, 42, weight=2.0)
        calls = self.count_fills(monkeypatch)
        assert len(rack.advance_time(usec(500))) == torus3d.n_nodes
        assert len(calls) <= 1
        assert rack.rate_of(1) == pytest.approx(2 * rack.rate_of(0))

    def test_local_waterfill_start_fills_once(self, torus3d, monkeypatch):
        rack = Rack(torus3d, ControllerConfig(initial_rate_policy="local_waterfill"))
        calls = self.count_fills(monkeypatch)
        fid = rack.start_flow(0, 42)
        assert len(calls) == 1
        assert rack.tables_consistent()
        assert rack.rate_of(fid) > 0


class TestRouteSelection:
    def test_selection_improves_contended_workload(self, torus2d):
        rack = Rack(torus2d)
        # Several flows converging on node 5 — minimal routing collides.
        for src in (0, 1, 2, 4):
            rack.start_flow(src, 5)
        before = rack.recompute_all().aggregate_throughput_bps()
        improvement = rack.select_routes()
        after = rack.recompute_all().aggregate_throughput_bps()
        assert rack.tables_consistent()
        if improvement > 0:
            assert after > before

    def test_no_flows_is_noop(self, torus2d):
        assert Rack(torus2d).select_routes() == 0.0

    def test_protocol_updates_propagate(self, torus2d):
        rack = Rack(torus2d)
        for src in (0, 1, 2, 4):
            rack.start_flow(src, 5)
        rack.select_routes(min_improvement=0.0)
        protocols = [
            tuple(s.protocol for s in node.controller.table.snapshot())
            for node in rack.nodes
        ]
        assert len(set(protocols)) == 1  # every node agrees

    def test_a_route_update_applies_in_full_or_not_at_all(self, torus2d):
        # Entry b names no protocol; entry a must not be applied before the
        # packet is refused, or node 2 disagrees with every other table.
        rack = Rack(torus2d)
        a, b = rack.start_flow(0, 5), rack.start_flow(1, 6)
        update = RouteUpdatePacket(((a, protocol_class("vlb").protocol_id), (b, 15)))
        with pytest.raises(RoutingError):
            rack.nodes[2].handle_route_update(update.encode())
        assert rack.nodes[2].controller.table.get(a).protocol == "rps"
        assert rack.tables_consistent()


class TestFailures:
    def test_reannounce_after_link_failure(self, torus2d):
        rack = Rack(torus2d)
        rack.start_flow(0, 5)
        rack.start_flow(3, 9)
        count = rack.inject_link_failure(1, 2)
        assert count == 2  # one re-announce per ongoing flow
        assert rack.tables_consistent()

    def test_failure_recorded_everywhere(self, torus2d):
        rack = Rack(torus2d)
        rack.inject_link_failure(0, 1)
        for node in rack.nodes:
            assert (0, 1) in node.failure_recovery.failed_links


class TestNodeWire:
    def test_start_flow_emits_valid_broadcast(self, torus2d):
        from repro.wire import BroadcastPacket, EVENT_FLOW_START

        rack = Rack(torus2d)
        packet_bytes = rack.nodes[0].start_flow(42, 5, protocol="vlb", weight=2.0)
        packet = BroadcastPacket.decode(packet_bytes)
        assert packet.event == EVENT_FLOW_START
        assert packet.flow_id == 42
        assert packet.src == 0 and packet.dst == 5
        assert packet.protocol_id == 2  # vlb
        assert math.isinf(packet.demand_bps)

    def test_own_broadcast_echo_ignored(self, torus2d):
        rack = Rack(torus2d)
        node = rack.nodes[0]
        data = node.start_flow(1, 5)
        before = node.controller.table.generation
        node.handle_broadcast(data)  # echo back to the sender
        assert node.controller.table.generation == before

    def test_a_refused_start_registers_no_broadcast(self, torus2d, monkeypatch):
        # The sender's controller accepts the decoded spec before the
        # packet enters the replay buffer or the sent count.
        node = Rack(torus2d).nodes[0]

        def refuse(_spec, _now_ns=0):
            raise ReproError("refused")

        monkeypatch.setattr(node.controller, "on_flow_started", refuse)
        with pytest.raises(ReproError):
            node.start_flow(1, 5)
        assert node.broadcasts_sent == 0
        assert node.reliability.pending_count() == 0

    def test_finish_requires_local_flow(self, torus2d):
        rack = Rack(torus2d)
        rack.start_flow(0, 5)
        with pytest.raises(ReproError):
            rack.nodes[3].finish_flow(0)  # node 3 is not the sender
