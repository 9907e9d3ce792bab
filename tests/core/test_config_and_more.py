"""Remaining core-package behaviours: selection with a wider protocol set,
utilization accounting and rack edge cases."""

import pytest

from repro.analysis import max_channel_utilization
from repro.congestion import ControllerConfig, FlowSpec
from repro.core import Rack
from repro.routing import RandomPacketSpraying
from repro.selection import SelectionProblem, uniform_baseline
from repro.types import usec
from repro.workloads import UniformPattern


class TestWiderSelection:
    def test_three_protocol_selection(self, torus2d):
        flows = [
            FlowSpec(i, i, (i + 5) % 16, protocol="rps") for i in range(6)
        ]
        problem = SelectionProblem(
            torus2d, flows, protocols=("rps", "vlb", "dor")
        )
        assert problem.n_choices == 3
        results = {
            name: uniform_baseline(problem, name).utility
            for name in ("rps", "vlb", "dor")
        }
        assert all(v > 0 for v in results.values())
        # DOR is single-path(ish): it cannot beat spraying here.
        assert results["rps"] >= results["dor"]

    def test_unknown_current_protocol_defaults_to_first(self, torus2d):
        flows = [FlowSpec(0, 0, 5, protocol="ecmp")]  # not a candidate
        problem = SelectionProblem(torus2d, flows, protocols=("rps", "vlb"))
        assert problem.current_assignment() == (0,)


class TestUtilizationAccounting:
    def test_max_channel_utilization(self, torus2d):
        rps = RandomPacketSpraying(torus2d)
        matrix = UniformPattern().matrix(torus2d)
        # At the saturation injection rate, utilization is exactly 1.
        from repro.analysis import saturation_throughput

        theta = saturation_throughput(rps, matrix)
        util = max_channel_utilization(
            rps, matrix, injection_bps=theta * torus2d.capacity_bps
        )
        assert util == pytest.approx(1.0)

    def test_half_rate_gives_half_utilization(self, torus2d):
        rps = RandomPacketSpraying(torus2d)
        matrix = UniformPattern().matrix(torus2d)
        full = max_channel_utilization(rps, matrix, torus2d.capacity_bps)
        half = max_channel_utilization(rps, matrix, torus2d.capacity_bps / 2)
        assert half == pytest.approx(full / 2)


class TestRackEdgeBehaviours:
    def test_many_flows_same_pair(self, torus2d):
        rack = Rack(torus2d)
        ids = [rack.start_flow(0, 5) for _ in range(5)]
        rack.recompute_all()
        rates = [rack.rate_of(fid) for fid in ids]
        # Same pair, same protocol: identical fair rates.
        assert max(rates) - min(rates) < 1e-6

    def test_flow_ids_monotonic(self, torus2d):
        rack = Rack(torus2d)
        a = rack.start_flow(0, 5)
        rack.finish_flow(a)
        b = rack.start_flow(0, 5)
        assert b > a  # ids are never reused

    def test_advance_time_multiple_epochs(self, torus2d):
        rack = Rack(torus2d, ControllerConfig(recompute_interval_ns=usec(100)))
        rack.start_flow(0, 5)
        allocations = rack.advance_time(usec(1000))
        # One allocation per node for the *due* recomputation (epochs are
        # not replayed one by one; the controller skips ahead).
        assert len(allocations) == torus2d.n_nodes
