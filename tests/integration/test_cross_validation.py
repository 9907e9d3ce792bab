"""Figure 7 in miniature: the Maze emulation and the packet simulator must
agree on flow throughput and queue occupancy distributions."""

import numpy as np
import pytest

from repro.analysis import ks_distance
from repro.maze import run_emulation
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, poisson_trace


@pytest.fixture(scope="module")
def crossval_pair():
    """One matched emulation + simulation run (module-scoped: it is the
    expensive fixture of the suite)."""
    topo = TorusTopology((4, 4), capacity_bps=gbps(5))
    trace = poisson_trace(
        topo, n_flows=40, mean_interarrival_ns=150_000,
        sizes=FixedSize(1_000_000), seed=21,
    )
    maze = run_emulation(topo, trace, seed=21)
    sim = run_simulation(
        topo, trace, SimConfig(stack="r2c2", mtu_payload=8192, seed=21)
    )
    return maze, sim


class TestCrossValidation:
    def test_both_complete(self, crossval_pair):
        maze, sim = crossval_pair
        assert maze.completion_rate() == 1.0
        assert sim.completion_rate() == 1.0

    def test_throughput_distributions_agree(self, crossval_pair):
        maze, sim = crossval_pair
        tm = [f.average_throughput_bps() for f in maze.long_flows(500_000)]
        ts = [f.average_throughput_bps() for f in sim.long_flows(500_000)]
        assert ks_distance(tm, ts) < 0.25
        assert np.mean(tm) == pytest.approx(np.mean(ts), rel=0.15)

    def test_queue_occupancy_agrees(self, crossval_pair):
        maze, sim = crossval_pair
        qm = np.percentile(maze.max_queue_occupancy_bytes, 90)
        qs = np.percentile(sim.max_queue_occupancy_bytes, 90)
        # Same order of magnitude is the Figure 7b claim at this scale.
        assert qm == pytest.approx(qs, rel=0.6)

    def test_broadcast_byte_accounting_agrees(self, crossval_pair):
        maze, sim = crossval_pair
        # Identical trace, identical tree fanout: identical broadcast bytes.
        assert maze.broadcast_bytes == pytest.approx(sim.broadcast_bytes, rel=0.05)

    def test_per_flow_fct_correlated(self, crossval_pair):
        maze, sim = crossval_pair
        fm = {f.flow_id: f.fct_ns() for f in maze.completed_flows()}
        fs = {f.flow_id: f.fct_ns() for f in sim.completed_flows()}
        ids = sorted(set(fm) & set(fs))
        a = np.array([fm[i] for i in ids], dtype=float)
        b = np.array([fs[i] for i in ids], dtype=float)
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8
