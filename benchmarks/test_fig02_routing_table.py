"""Figure 2 (table): saturation throughput of four routing algorithms on an
8-ary 2-cube across six traffic patterns.

Paper values (fractions of capacity):

    pattern           RPS   DTR   VLB   WLB
    nearest neighbor  4.00  4.00  0.50  2.33
    uniform           1.00  1.00  0.50  0.76
    bit complement    0.40  0.50  0.50  0.42
    transpose         0.54  0.25  0.50  0.57
    tornado           0.33  0.33  0.50  0.53
    worst-case        0.21  0.25  0.50  0.31

This one is exact analysis (channel loads + worst-case matchings), so it is
independent of REPRO_SCALE and should match the paper closely.
"""

import pytest

from repro.experiments.figures import FIG02_PATTERNS, fig02_table

from conftest import figure_results


def test_fig02_routing_throughput_table():
    table = fig02_table(figure_results("fig02"))

    # Shape assertions: the paper's qualitative structure.
    assert table["nearest-neighbor"]["rps"] == pytest.approx(4.0, abs=0.05)
    assert table["uniform"]["rps"] == pytest.approx(1.0, abs=0.08)
    assert table["tornado"]["rps"] == pytest.approx(1 / 3, abs=0.02)
    assert table["tornado"]["wlb"] == pytest.approx(0.53, abs=0.03)
    # VLB is flat at 0.5 everywhere.
    for pattern in FIG02_PATTERNS:
        assert table[pattern]["vlb"] == pytest.approx(0.5, abs=0.06)
    # No single algorithm wins everywhere: minimal routing dominates on
    # local traffic, VLB dominates the worst case.
    assert table["nearest-neighbor"]["rps"] > table["nearest-neighbor"]["vlb"]
    assert table["worst-case"]["vlb"] > table["worst-case"]["rps"]
    assert table["worst-case"]["vlb"] > table["worst-case"]["dor"]
    # WLB interpolates: beats VLB on local patterns, beats minimal in the
    # worst case.
    assert table["nearest-neighbor"]["wlb"] > table["nearest-neighbor"]["vlb"]
    assert table["worst-case"]["wlb"] > table["worst-case"]["rps"]
