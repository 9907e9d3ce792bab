"""Figure 9: network capacity used for broadcasting grows linearly with the
fraction of bytes carried by small flows, and is lower on larger-diameter
topologies (3D mesh, 2D torus) than on the 3D torus.

The paper's anchor point: at 5 % small-flow bytes, 1.3 % of capacity goes to
broadcasts on a 512-node 3D torus (10 KB small flows, 35 MB large flows).
The analytic curves are computed by the figure's aggregator; one point is
validated with measured bytes from a packet simulation.
"""

import pytest

from repro.experiments.figures import FIG09_FRACTIONS, fig09_rows

from conftest import figure_results


def test_fig09_broadcast_capacity_fraction(scale):
    data = fig09_rows(figure_results("fig09"), scale)
    curves = data["curves"]

    # Anchor point.
    assert curves["3D torus"][1] == pytest.approx(1.3, abs=0.2)
    # Linearity and topology ordering.
    for curve in curves.values():
        assert curve == sorted(curve)
        # At 0% small bytes only the (rare) large flows are announced.
        assert curve[0] < 0.05
    for i in range(len(FIG09_FRACTIONS)):
        assert curves["3D mesh"][i] <= curves["3D torus"][i] + 1e-9
        assert curves["2D torus"][i] <= curves["3D torus"][i] + 1e-9
    # The packet simulator's measured share is in the analytic ballpark
    # (the sim adds queueing, finite horizon and header bytes).
    assert data["measured"] == pytest.approx(data["predicted"], rel=0.5)
