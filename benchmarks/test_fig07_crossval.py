"""Figure 7: cross-validation of the Maze emulation against the packet
simulator on a 2D torus with 5 Gbps links — flow throughput (7a) and maximum
queue occupancy (7b) distributions must agree.

The paper runs 1,000 x 10 MB flows on a 4x4 torus; the small scale runs the
same topology with proportionally fewer/smaller flows (the Maze emulation is
byte-level and therefore the slowest artifact in this repository).
"""

import numpy as np
import pytest

from conftest import figure_results


def test_fig07_maze_vs_simulator():
    r = figure_results("fig07")["crossval/r0"]
    tput_maze, tput_sim = r["tput_maze_gbps"], r["tput_sim_gbps"]

    # The cross-validation claim: the two independently built artifacts
    # agree ("our packet-level simulator exhibits high accuracy").
    assert r["maze_completion_rate"] == 1.0
    assert r["sim_completion_rate"] == 1.0
    assert r["ks_throughput"] < 0.25
    assert np.mean(tput_maze) == pytest.approx(np.mean(tput_sim), rel=0.15)
    assert np.percentile(r["queue_maze_kb"], 90) == pytest.approx(
        np.percentile(r["queue_sim_kb"], 90), rel=0.6
    )
