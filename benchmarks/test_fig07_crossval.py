"""Figure 7: cross-validation of the Maze emulation against the packet
simulator on a 2D torus with 5 Gbps links — flow throughput (7a) and maximum
queue occupancy (7b) distributions must agree.

The paper runs 1,000 x 10 MB flows on a 4x4 torus; the small scale runs the
same topology with proportionally fewer/smaller flows (the Maze emulation is
byte-level and therefore the slowest artifact in this repository).
"""

import numpy as np
import pytest

from repro.analysis import empirical_cdf, format_series, ks_distance
from repro.maze import run_emulation
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, poisson_trace

from conftest import current_scale, emit


def run_pair():
    scale = current_scale()
    topo = TorusTopology((4, 4), capacity_bps=gbps(5))
    flow_bytes = 10_000_000 if scale.name == "paper" else 1_000_000
    tau = 1_000_000 if scale.name == "paper" else 150_000
    trace = poisson_trace(
        topo,
        scale.crossval_flows,
        tau,
        sizes=FixedSize(flow_bytes),
        seed=21,
    )
    maze = run_emulation(topo, trace, seed=21)
    sim = run_simulation(
        topo, trace, SimConfig(stack="r2c2", mtu_payload=8192, seed=21)
    )
    return maze, sim


def deciles(values):
    return [float(np.percentile(values, p)) for p in range(10, 100, 10)]


def test_fig07_maze_vs_simulator(benchmark):
    maze, sim = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    tput_maze = [f.average_throughput_bps() / 1e9 for f in maze.completed_flows()]
    tput_sim = [f.average_throughput_bps() / 1e9 for f in sim.completed_flows()]
    q_maze = [b / 1000 for b in maze.max_queue_occupancy_bytes]
    q_sim = [b / 1000 for b in sim.max_queue_occupancy_bytes]

    text = format_series(
        "Fig 7a: flow throughput CDF deciles (Gbps)",
        "pct",
        list(range(10, 100, 10)),
        {"maze": deciles(tput_maze), "simulator": deciles(tput_sim)},
    )
    text += "\n\n" + format_series(
        "Fig 7b: max queue occupancy CDF deciles (KB)",
        "pct",
        list(range(10, 100, 10)),
        {"maze": deciles(q_maze), "simulator": deciles(q_sim)},
    )
    ks_tput = ks_distance(tput_maze, tput_sim)
    ks_queue = ks_distance(q_maze, q_sim)
    text += (
        f"\n\nKS(throughput) = {ks_tput:.3f}   KS(queue) = {ks_queue:.3f}"
        f"\nmean throughput: maze {np.mean(tput_maze):.2f} Gbps, "
        f"simulator {np.mean(tput_sim):.2f} Gbps"
    )
    emit("fig07_crossval", text)

    # The cross-validation claim: the two independently built artifacts
    # agree ("our packet-level simulator exhibits high accuracy").
    assert maze.completion_rate() == 1.0
    assert sim.completion_rate() == 1.0
    assert ks_tput < 0.25
    assert np.mean(tput_maze) == pytest.approx(np.mean(tput_sim), rel=0.15)
    assert np.percentile(q_maze, 90) == pytest.approx(
        np.percentile(q_sim, 90), rel=0.6
    )
