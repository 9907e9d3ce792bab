"""Figure campaign specs: grids, seeds, aggregators, and parity with the
direct path."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.analysis import format_table
from repro.errors import ExperimentError
from repro.experiments import (
    ExecutorConfig,
    FIGURES,
    SCALES,
    FigureDef,
    campaign_for,
    fig02_table,
    run_campaign,
)
from repro.experiments.figures import table_file_text, tables_match

pytestmark = pytest.mark.experiments

SMALL = SCALES["small"]
RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_registry_names_and_outputs():
    assert sorted(FIGURES) == [
        "ablations", "claims", "fig02", "fig07", "fig08", "fig09",
        "fig10_14", "fig15_16", "fig17", "fig18", "fig18_heuristics",
        "fig19", "synth",
    ]
    for fig in FIGURES.values():
        assert fig.outputs, fig.name


def test_every_committed_table_has_exactly_one_producer():
    owners = {
        path.stem: [f.name for f in FIGURES.values() if path.stem in f.outputs]
        for path in RESULTS_DIR.glob("*.txt")
    }
    assert len(owners) == 20
    assert {stem: o for stem, o in owners.items() if len(o) != 1} == {}
    for fig in FIGURES.values():
        for cell in fig.wallclock:
            stem, _, column = cell.partition(":")
            assert stem in fig.outputs, cell
            if column:
                assert column in (RESULTS_DIR / f"{stem}.txt").read_text().split(), cell


_SIM = {
    "summary": {"flows": 2.0, "broadcast_bytes": 1000.0},
    "completion_rate": 1.0,
    "short_fcts_us": [10.0, 20.0],
    "long_tputs_gbps": [5.0, 6.0],
    "queue_occupancy_bytes": [1000, 3000],
    "reorder_buffers": [1, 3],
    "fcts_ns": [1000, 2000],
    "telemetry": {
        "counters": {
            "wire.total_bytes": 10_000, "wire.data_bytes": 8000, "wire.ack_bytes": 80,
        },
    },
    "wallclock_s": 0.5,
}
#: A hand-built result per task kind: enough for every aggregator.
_FAKE_RESULTS = {
    "routing": {"throughput": 0.5},
    "sim": _SIM,
    "selection": {"utility": 2e9},
    "crossval": {
        "maze_completion_rate": 1.0, "sim_completion_rate": 1.0,
        "tput_maze_gbps": [1.0, 2.0], "tput_sim_gbps": [1.5, 2.5],
        "queue_maze_kb": [3.0, 4.0], "queue_sim_kb": [3.5, 4.5],
        "ks_throughput": 0.1, "ks_queue": 0.2,
    },
    "rate_error": {"errors": [0.01, 0.02, 0.5]},
    "epoch_cost": {"overheads": [0.1, 0.2]},
}
_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _skeleton(text):
    """A table's lines, sorted, with every number replaced by ``#``: its
    titles, columns, row labels and footers without the measurements."""
    return sorted(" ".join(_NUMBER.sub("#", line).split()) for line in text.splitlines())


@pytest.mark.parametrize("name", [n for n in FIGURES if n != "synth"])
def test_aggregators_emit_committed_tables(name):
    """Fed a hand-built result map (no simulation), each aggregator emits
    every output with the committed table's title, columns and footers."""
    fig = FIGURES[name]
    results = {
        task.key: _FAKE_RESULTS[task.scenario.kind]
        for task in fig.build(SMALL).expand()
    }
    tables = fig.aggregate(results, SMALL)
    assert sorted(tables) == sorted(fig.outputs)
    for stem, text in tables.items():
        committed = (RESULTS_DIR / f"{stem}.txt").read_text()
        assert _skeleton(table_file_text(stem, text, SMALL)) == _skeleton(committed), stem


def test_check_skips_only_declared_wallclock_cells():
    fig = FigureDef(
        name="t", title="t", outputs=("t",), build=None, aggregate=None,
        wallclock=("t:wall_s",),
    )

    def table(fct, wall):
        return format_table("T", ["fct_us", "wall_s"], {"a": [fct, wall]}) + "\n\nnote"

    assert tables_match(fig, "t", table(1.0, 0.5), table(1.0, 12.5))
    assert not tables_match(fig, "t", table(1.0, 0.5), table(1.5, 0.5))
    assert tables_match(FIGURES["fig08"], "fig08_cpu_overhead", "a", "b")
    assert not tables_match(FIGURES["fig02"], "fig02_routing_table", "a", "b")


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
        ("fig08", 5),        # 5 recompute intervals
        ("fig15_16", 8),     # 5 intervals + 3 taus
        ("fig18_heuristics", 6),  # 4 searches + 2 uniform baselines
        ("ablations", 9),    # 2 control planes + 7 seed-23 variants
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
