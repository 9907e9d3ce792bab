"""Ablation: shared (collapsed) vs per-node control plane in the simulator.

The shared mode computes the provably identical per-node allocations once;
the per-node mode runs one controller per node, fed only by actual
broadcast deliveries, so visibility skew (microseconds of broadcast
propagation vs 500 µs epochs) is modelled exactly.  This bench quantifies
both the fidelity gap (≈0) and the cost of full fidelity (kept small by the
shared allocation memo).

The table's ``wall_s`` column is wall-clock, so ``repro figures --check``
skips it.
"""

from repro.experiments.figures import ablation_rows

from conftest import figure_results


def test_ablation_control_plane_fidelity():
    results = figure_results("ablations")
    assert results["control/shared/r0"]["completion_rate"] == 1.0
    assert results["control/per_node/r0"]["completion_rate"] == 1.0
    assert ablation_rows(results)["median_gap"] < 0.05
