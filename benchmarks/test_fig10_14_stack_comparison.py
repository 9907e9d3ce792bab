"""Figures 10-14: R2C2 vs TCP vs PFQ on the evaluation rack.

* Fig 10 — CDF of FCT for short flows (< 100 KB) at the default τ.
* Fig 11 — CDF of average throughput for long flows (> 1 MB).
* Fig 12 — p99 short-flow FCT normalized to TCP, across τ.
* Fig 13 — mean long-flow throughput normalized to TCP, across τ.
* Fig 14 — median / p99 of per-port max queue occupancy across τ (R2C2).

Paper headlines at 512 nodes, τ=1 µs: TCP is 3.21x worse than R2C2 at the
p99 short-flow FCT and 2.55x worse on long-flow throughput; R2C2 closely
tracks the idealized PFQ for short flows; R2C2's p99 queue occupancy stays
under 27 KB for τ >= 1 µs and blows up (330 KB) only at the 100 ns stress
point.
"""

import pytest

from repro.experiments.figures import fig10_14_series

from conftest import figure_results


@pytest.fixture(scope="module")
def series(scale):
    return fig10_14_series(figure_results("fig10_14"), scale)


def test_fig10_short_flow_fct_cdf(series):
    deciles = series["fig10_fct_short"]
    # TCP worst; R2C2 tracks PFQ.
    assert deciles["tcp"][-1] > deciles["r2c2"][-1]
    assert deciles["r2c2"][-1] < deciles["pfq"][-1] * 2.0


def test_fig11_long_flow_throughput_cdf(series):
    deciles = series["fig11_tput_long"]
    # Median ordering: multi-path stacks beat single-path TCP.
    assert deciles["r2c2"][4] > deciles["tcp"][4]
    assert deciles["pfq"][4] >= deciles["r2c2"][4] * 0.7


def test_fig12_fct_vs_load(series):
    # R2C2 beats TCP at every load.
    assert all(v < 1.0 for v in series["fig12_fct_vs_load"]["r2c2"])


def test_fig13_throughput_vs_load(series):
    assert all(v > 1.0 for v in series["fig13_tput_vs_load"]["r2c2"])


def test_fig14_queue_occupancy_vs_load(series):
    p99 = series["fig14_queue_occupancy"]["p99_kb"]
    # Queues shrink as load drops.
    assert p99[-1] <= p99[0]
    # At the lightest load queues are tiny (the low-queuing goal G3).
    assert p99[-1] < 100
