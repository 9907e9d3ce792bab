#!/usr/bin/env python
"""Cross-validating the two execution substrates (paper §5.1, Figure 7).

Runs the identical workload on (a) the byte-level Maze emulation platform —
ring buffers, pointer rings, real encoded packets, checksums verified at the
receiver — and (b) the event-driven packet simulator, then compares the
per-flow throughput distributions and queue occupancies.

Run:  python examples/emulation_crossval.py
"""

import numpy as np

from repro.analysis import format_series, ks_distance
from repro.maze import run_emulation
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, poisson_trace


def main() -> None:
    # The Figure 7 setup, scaled: 4x4 2D torus, 5 Gbps virtual links.
    topology = TorusTopology((4, 4), capacity_bps=gbps(5))
    trace = poisson_trace(
        topology,
        n_flows=40,
        mean_interarrival_ns=150_000,
        sizes=FixedSize(1_000_000),
        seed=77,
    )
    print(f"workload: {len(trace)} x 1 MB flows on {topology.name} @ 5 Gbps")

    maze = run_emulation(topology, trace, seed=77)
    print(f"maze emulation: {maze.duration_ns / 1e6:.1f} ms simulated, "
          f"{maze.wallclock_s:.1f} s wall, "
          f"{maze.broadcast_packets} broadcast deliveries")

    sim = run_simulation(
        topology, trace, SimConfig(stack="r2c2", mtu_payload=8192, seed=77)
    )
    print(f"packet simulator: {sim.duration_ns / 1e6:.1f} ms simulated, "
          f"{sim.wallclock_s:.1f} s wall")

    tput_maze = [f.average_throughput_bps() / 1e9 for f in maze.completed_flows()]
    tput_sim = [f.average_throughput_bps() / 1e9 for f in sim.completed_flows()]
    pcts = list(range(10, 100, 10))
    print()
    print(
        format_series(
            "Flow throughput CDF deciles (Gbps)",
            "pct",
            pcts,
            {
                "maze": [float(np.percentile(tput_maze, p)) for p in pcts],
                "simulator": [float(np.percentile(tput_sim, p)) for p in pcts],
            },
        )
    )
    print(f"\nKS distance: {ks_distance(tput_maze, tput_sim):.3f} "
          f"(0 = identical distributions)")
    print(f"mean throughput: maze {np.mean(tput_maze):.2f} Gbps, "
          f"simulator {np.mean(tput_sim):.2f} Gbps")
    print("\nagreement between two independently built artifacts is the "
          "paper's confidence argument for its large-scale simulations")


if __name__ == "__main__":
    main()
