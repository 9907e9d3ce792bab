"""End-to-end scenarios exercising several subsystems together."""

import pytest

from repro.congestion import ControllerConfig
from repro.core import Rack
from repro.sim import SimConfig, run_simulation
from repro.topology import FoldedClosTopology, HypercubeTopology, TorusTopology
from repro.types import usec
from repro.workloads import FixedSize, ParetoSizes, poisson_trace


class TestLifeOfAFlow:
    """§3.1's narrative, step by step."""

    def test_full_lifecycle(self, torus3d):
        rack = Rack(torus3d, ControllerConfig(recompute_interval_ns=usec(500)))
        # 1. Flow starts; its announcement reaches every node.
        fid = rack.start_flow(0, 42)
        assert rack.tables_consistent()
        # 2. The sender computes the flow's allocation and rate-limits it.
        rack.advance_time(usec(500))
        rate = rack.rate_of(fid)
        assert 0 < rate
        # 3. Another flow arrives and shares the fabric after the epoch.
        other = rack.start_flow(1, 42)
        rack.advance_time(usec(500))
        assert rack.rate_of(fid) <= rate  # sharing cannot increase it
        # 4. Routing selection may reassign protocols.
        rack.select_routes(min_improvement=0.0)
        assert rack.tables_consistent()
        # 5. Flows finish; capacity returns.
        rack.finish_flow(other)
        rack.advance_time(usec(500))
        assert rack.rate_of(fid) >= rate * 0.99

    def test_headroom_reserved_end_to_end(self, torus2d):
        rack = Rack(torus2d, ControllerConfig(headroom=0.10))
        rack.start_flow(0, 1)
        allocation = rack.recompute_all()
        assert allocation.link_capacity_bps.max() == pytest.approx(
            torus2d.capacity_bps * 0.9
        )


class TestAlternativeFabrics:
    """R2C2 is not torus-specific (§6): hypercubes and switched fabrics."""

    def test_hypercube_rack(self):
        topo = HypercubeTopology(4)
        rack = Rack(topo)
        fid = rack.start_flow(0, 15)
        rack.recompute_all()
        assert rack.rate_of(fid) > 0

    def test_folded_clos_rack(self):
        topo = FoldedClosTopology(16, radix=8)
        rack = Rack(topo)
        fid = rack.start_flow(0, 15)
        rack.recompute_all()
        # Host NIC is the bottleneck: exactly one access link's capacity.
        assert rack.rate_of(fid) == pytest.approx(
            topo.capacity_bps * (1 - rack.config.headroom)
        )

    def test_simulation_on_hypercube(self):
        topo = HypercubeTopology(4)
        trace = poisson_trace(topo, 30, 20_000, sizes=FixedSize(100_000), seed=5)
        metrics = run_simulation(topo, trace, SimConfig(stack="r2c2"))
        assert metrics.completion_rate() == 1.0


class TestDegradedFabric:
    def test_simulation_survives_link_removal(self, torus2d):
        degraded = torus2d.without_links([(0, 1), (1, 0)])
        trace = poisson_trace(degraded, 30, 20_000, sizes=FixedSize(50_000), seed=6)
        metrics = run_simulation(degraded, trace, SimConfig(stack="r2c2"))
        assert metrics.completion_rate() == 1.0

    def test_rates_shift_after_failure(self, torus2d):
        # Counter-intuitive but correct: losing the direct 0-1 cable turns a
        # single 1-hop path into many 3-hop paths, so a *lone* flow's
        # aggregate allocation goes up (it sprays over more first hops) —
        # while paying 3x the fabric capacity.  Check both effects.
        rack_full = Rack(torus2d)
        fid = rack_full.start_flow(0, 1)
        full = rack_full.recompute_all()

        degraded = torus2d.without_links([(0, 1), (1, 0)])
        assert degraded.distance(0, 1) == 3
        rack_degraded = Rack(degraded)
        fid2 = rack_degraded.start_flow(0, 1)
        deg = rack_degraded.recompute_all()
        assert deg.rates_bps[fid2] != full.rates_bps[fid]
        # Fabric cost per delivered bit tripled: total link load / rate.
        cost_full = full.link_load_bps.sum() / full.rates_bps[fid]
        cost_deg = deg.link_load_bps.sum() / deg.rates_bps[fid2]
        assert cost_full == pytest.approx(1.0)
        assert cost_deg == pytest.approx(3.0)


class TestWorkloadRealism:
    def test_pareto_workload_end_to_end(self, torus2d):
        trace = poisson_trace(
            torus2d,
            120,
            8_000,
            sizes=ParetoSizes(mean_bytes=60_000, shape=1.2, cap_bytes=2_000_000),
            seed=13,
        )
        metrics = run_simulation(torus2d, trace, SimConfig(stack="r2c2", seed=13))
        assert metrics.completion_rate() == 1.0
        summary = metrics.summary()
        assert summary["drops"] == 0
        assert metrics.broadcast_capacity_fraction() < 0.2
