"""Figure campaign specs: grids, seeds, and parity with the direct path."""

import json
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExecutorConfig,
    FIGURES,
    SCALES,
    campaign_for,
    fig02_table,
    run_campaign,
)

pytestmark = pytest.mark.experiments

SMALL = SCALES["small"]


def test_registry_names_and_outputs():
    assert sorted(FIGURES) == [
        "fig02", "fig07", "fig10_14", "fig17", "fig18", "synth",
    ]
    for fig in FIGURES.values():
        assert fig.outputs, fig.name


def test_campaign_for_unknown_figure():
    with pytest.raises(ExperimentError, match="unknown figure"):
        campaign_for("fig99", SMALL)


@pytest.mark.parametrize(
    "name, n_tasks",
    [
        ("fig02", 24),       # 4 protocols x 6 patterns
        ("fig07", 1),
        ("fig10_14", 9),     # 3 stacks x 3 taus at small scale
        ("fig17", 4),        # 4 headrooms
        ("fig18", 20),       # 5 loads x 4 selectors at small scale
    ],
)
def test_small_scale_grid_sizes(name, n_tasks):
    campaign = campaign_for(name, SMALL)
    tasks = campaign.expand()
    assert len(tasks) == n_tasks
    assert len({t.key for t in tasks}) == n_tasks
    assert len({t.seed for t in tasks}) == n_tasks


def test_figure_campaign_specs_survive_json():
    for name in FIGURES:
        campaign = campaign_for(name, SMALL)
        clone = type(campaign).from_json(campaign.to_json())
        assert clone.fingerprint() == campaign.fingerprint()


def test_fig02_campaign_matches_direct_analysis():
    """A filtered fig02 campaign reproduces the direct (non-campaign)
    saturation-throughput computation bit-for-bit."""
    from repro.analysis import saturation_throughput
    from repro.routing.base import make_protocol
    from repro.topology import TorusTopology
    from repro.workloads import STANDARD_PATTERNS

    campaign = campaign_for("fig02", SMALL)
    wanted = {"rps/uniform", "vlb/tornado"}
    filtered = type(campaign)(
        name=campaign.name,
        scenarios=[s for s in campaign.scenarios if s.name in wanted],
        seed=campaign.seed,
    )
    run = run_campaign(filtered, ExecutorConfig(workers=1, strict=True))

    topo = TorusTopology((8, 8))
    for protocol, pattern in (("rps", "uniform"), ("vlb", "tornado")):
        direct = saturation_throughput(
            make_protocol(protocol, topo),
            STANDARD_PATTERNS[pattern].matrix(topo),
        )
        assert run.results[f"{protocol}/{pattern}/r0"]["throughput"] == direct


def test_fig02_table_reports_missing_tasks():
    with pytest.raises(ExperimentError, match="missing task result"):
        fig02_table({})


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="needs >= 2 CPU cores for a meaningful parallel run",
)
def test_parallel_fig02_is_byte_identical():
    """Acceptance criterion: a 2-worker sweep of the Figure 2 grid is
    byte-identical to the serial path.  (No wall-clock assertion here: CI's
    ``sweep-smoke`` job runs the 2-worker campaign end to end.)"""
    campaign = campaign_for("fig02", SMALL)
    serial = run_campaign(campaign, ExecutorConfig(workers=1))
    pooled = run_campaign(campaign, ExecutorConfig(workers=2))
    assert json.dumps(serial.results, sort_keys=True) == json.dumps(
        pooled.results, sort_keys=True
    )
