"""Supporting quantitative claims from outside the figure set.

The test pins each number the paper states in prose, as computed by
:func:`repro.experiments.figures.prose_claims` (the table's producer):

* §2.2.2 — an average flow in a small 3D-torus rack has 1,680 minimal paths.
* §3.2  — one 512-node broadcast is ≈8 KB on the wire; announcing a 10 KB
  flow costs 26.66 %; all-pairs flows generate ≈681 KB per link.
* §3.2  — the rack expects "less than two failures a day".
* §4.2  — the per-{protocol, destination} weight cache fits in ~6 MB for a
  512-node rack.
* §6   — a broadcast on a 512-host folded Clos is ≈8.7 KB.
* §3.3.1 — Figure 4's {2/3, 2/3} vs {1, 1} allocation gap.
"""

import pytest

from repro.experiments.figures import prose_claims


def test_paper_prose_claims():
    for label, measured, paper, tolerance in prose_claims():
        if tolerance is None:
            assert measured < paper, label
        else:
            assert measured == pytest.approx(paper, rel=tolerance), label
