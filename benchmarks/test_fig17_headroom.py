"""Figure 17: sensitivity to the bandwidth headroom (0 - 20 %).

* 17a — p99 short-flow FCT against headroom.
* 17b — mean long-flow throughput against headroom.

Paper claims: performance is "not particularly sensitive" to the setting;
5 % is the sweet spot — at τ=1 µs it cuts the p99 short-flow FCT by 21.9 %
versus no headroom, while costing long flows under 3 % of throughput.
"""

from repro.experiments.figures import fig17_rows

from conftest import figure_results


def test_fig17_headroom_sensitivity():
    rows = fig17_rows(figure_results("fig17"))
    fct_none, tput_none = rows[0.0]
    fct_5, tput_5 = rows[0.05]
    fct_20, tput_20 = rows[0.20]
    # Headroom helps short flows (absorbs bursts) ...
    assert fct_5 <= fct_none * 1.02
    # ... at modest cost to long flows ...
    assert tput_5 >= tput_none * 0.85
    # ... and the overall sensitivity is mild across the sweep.
    assert fct_20 < fct_none * 2.0
    assert tput_20 > tput_none * 0.7
