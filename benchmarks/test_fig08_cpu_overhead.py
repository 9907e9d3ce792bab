"""Figure 8: CPU overhead of rate recomputation versus the interval ρ.

The paper replays a 512-node trace (1 µs inter-arrivals) and reports the
99th-percentile of (recomputation wall time / ρ) on a Xeon E5-2665 and an
Atom D510: e.g. at ρ=500 µs the Xeon median is 1.7 % (p99 7.9 %); ρ=100 µs
is borderline (p99 73.9 %) and infeasible on the Atom.

Here the same experiment runs against our numpy water-fill.  Python carries
a large constant factor over the paper's C++, so absolute percentages are
higher; the reproduced claims are the *shape* (overhead falls superlinearly
as ρ grows, because batching both amortizes cost and filters short flows)
and the existence of a feasibility cliff at small ρ.

Every cell is wall-clock, so ``repro figures --check`` skips this table;
the trend below is what is checked.
"""

from repro.experiments.figures import fig08_rows

from conftest import figure_results


def test_fig08_recompute_cpu_overhead():
    rows = fig08_rows(figure_results("fig08"))
    rhos = sorted(rows)
    # Shape: overhead decreases as the interval grows.
    assert rows[rhos[0]][1] > rows[rhos[-1]][1]
    assert rows[rhos[-1]][0] < rows[rhos[0]][0] * 1.05
