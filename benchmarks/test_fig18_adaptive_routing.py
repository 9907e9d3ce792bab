"""Figure 18: aggregate throughput of the adaptive (GA) routing selection
normalized against all-RPS, all-VLB and random per-flow assignment, across
load L (fraction of nodes sourcing one long-running flow each).

Paper claims: the adaptive selection "is able to always achieve the best
performance across all load values (the relative performance is always
above one)", with VLB favoured at low load (spare capacity for detours) and
minimal routing at high load.

Also includes the §3.4 heuristic ablation: GA versus hill climbing,
simulated annealing and log-linear learning (the heuristics the paper tried
and discarded).
"""

from repro.experiments.figures import fig18_heuristic_rows, fig18_rows

from conftest import figure_results


def test_fig18_adaptive_vs_baselines(scale):
    rows = fig18_rows(figure_results("fig18"), scale)
    loads = list(scale.fig18_loads)
    series = {
        name: [rows[load]["adaptive"] / rows[load][name] for load in loads]
        for name in ("rps", "vlb", "random")
    }
    # Adaptive never loses to any baseline.
    for name, values in series.items():
        assert all(v >= 1.0 - 1e-9 for v in values), name
    # Mixing wins strictly somewhere (the point of per-flow protocols).
    assert max(max(v) for v in series.values()) > 1.02
    # Low-load regime: VLB-style spreading beats pure minimal routing.
    low = loads[0]
    assert rows[low]["vlb"] > rows[low]["rps"]


def test_fig18_heuristic_ablation():
    """§3.4 ablation: the heuristics the paper evaluated before choosing GA."""
    utility, _best_uniform = fig18_heuristic_rows(figure_results("fig18_heuristics"))
    # GA matches or beats every alternative the paper discarded.
    assert utility["genetic"] >= max(utility.values()) * 0.999
