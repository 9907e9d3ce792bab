"""Ablations of R2C2's design choices (beyond the paper's figure set).

Each ablation isolates one knob DESIGN.md calls out:

* **Young-flow rate policy** — what a flow may send before its first epoch:
  the §3.1 sender-computed allocation (``local_waterfill``), the cheap
  ``mean_allocated`` estimate, or a ``line_rate`` blast absorbed by the
  headroom.  The policies trade sender CPU for queueing and rate accuracy.
* **Reliability transport** — the §6 extension: cost of ACK traffic when
  the fabric is clean, and completion behaviour when it is not.
* **Broadcast tree fan-out** — one tree per source versus several
  (multi-tree load balancing of control bytes).
"""

import pytest

from repro.experiments.figures import ablation_rows

from conftest import figure_results


@pytest.fixture(scope="module")
def rows():
    return ablation_rows(figure_results("ablations"))


def test_ablation_young_flow_policy(rows):
    policy = rows["policy"]
    # Sender-computed allocations serve short flows best.
    assert policy["local_waterfill"][0] <= policy["line_rate"][0] * 1.05
    assert policy["local_waterfill"][2] >= policy["line_rate"][2] * 0.9


def test_ablation_reliability_cost(rows):
    reliability = rows["reliability"]
    assert reliability["plain"][0] == 1.0
    assert reliability["reliable"][0] == 1.0
    assert reliability["reliable+1% loss"][0] == 1.0
    assert reliability["plain"][2] == 0.0
    assert reliability["reliable"][2] > 0.0


def test_ablation_broadcast_trees(rows):
    byte_counts = {bytes_ for bytes_, _fct in rows["trees"].values()}
    assert max(byte_counts) - min(byte_counts) <= 0.01 * max(byte_counts)
