"""Figures 15 and 16: accuracy of periodic rate recomputation.

* Fig 15 — median / p95 of the normalized difference between each flow's
  average rate under recomputation interval ρ and under the ideal ρ=0
  (recompute at every flow event), at the default τ.
* Fig 16 — the same error at ρ=500 µs as a function of τ.

Paper anchors (512 nodes): ρ=500 µs-1 ms keeps the median within 8.2 %
(p95 37.9 %) at τ=1 µs; the error is negligible at τ=100 µs and large at
τ=100 ns.  Reproduced claims: error decreases with smaller ρ (Fig 15) and
increases with load (Fig 16).
"""

from repro.experiments.figures import fig15_16_rows

from conftest import figure_results


def test_fig15_rate_error_vs_interval(scale):
    rows, _ = fig15_16_rows(figure_results("fig15_16"), scale)
    rhos = sorted(rows)
    # Smaller intervals track the ideal more closely.
    assert rows[rhos[0]][0] <= rows[rhos[-1]][0]
    assert rows[rhos[0]][1] <= rows[rhos[-1]][1] * 1.2


def test_fig16_rate_error_vs_load(scale):
    _, rows = fig15_16_rows(figure_results("fig15_16"), scale)
    taus = sorted(rows)
    # Heavier load (smaller tau) => larger deviation from ideal.
    assert rows[taus[0]][0] >= rows[taus[-1]][0]
