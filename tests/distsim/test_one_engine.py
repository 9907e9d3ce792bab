"""One engine: the sharded run has a single, in-process back end.

A process-per-shard executor used to sit beside the in-process one behind
an ``executor=`` seam and a ``--shard-executor`` flag; it measured
0.23–0.66x of serial (DESIGN.md §6d) and was deleted.  These guards keep
the fork from growing back one parameter at a time, and pin the sync
profile — all simulated-time quantities now — across commits.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro.distsim
from repro.cli import build_parser
from repro.distsim import run_sharded_simulation
from repro.sim import SimConfig
from repro.topology import TorusTopology
from repro.validation.oracle import sharded_vs_serial_case, sharded_vs_serial_report
from repro.workloads import poisson_trace

pytestmark = pytest.mark.distsim

#: Sync profile of the seeded 4x4 K=4 run below.  Boundary traffic is as
#: produced by commit d4d3763 (the parent of the deletion); rounds and mean
#: window were re-pinned when a packet hop became one event (1690 rounds of
#: 591.7 ns before): with no finish event per hop, the next-event bound
#: jumps further, and the same messages cross in fewer windows.
PINNED_PROFILE = {
    "rounds": 1627,
    "boundary_messages": 1219,
    "lookahead_ns": 100,
    "mean_window_ns": 614.6281499692686,
    "lookahead_utilization": 1.0,
}
#: per shard: (rounds, boundary_in, boundary_out)
PINNED_SHARDS = [(1627, 226, 533), (1627, 638, 168), (1627, 164, 296), (1627, 191, 222)]

_EXECUTOR_NAMES = {
    "EXECUTORS",
    "ProcessShardExecutor",
    "VirtualShardExecutor",
    "make_executor",
}


def test_no_executor_parameter_anywhere():
    for fn in (run_sharded_simulation, sharded_vs_serial_case, sharded_vs_serial_report):
        assert "executor" not in inspect.signature(fn).parameters, fn.__name__


def test_public_surface_lost_exactly_the_executor_names():
    assert sorted(repro.distsim.__all__) == [
        "DistSimResult",
        "ShardSim",
        "canonical_flow",
        "canonical_metrics",
        "comparable_snapshot",
        "run_sharded_simulation",
        "validate_sharded_config",
    ]
    for name in _EXECUTOR_NAMES:
        assert not hasattr(repro.distsim, name), name


def test_distsim_sources_start_no_process():
    """Tooling guard: nothing under ``repro/distsim`` reaches for a second
    process (or names the seam that selected one)."""
    root = Path(repro.distsim.__file__).parent
    files = sorted(root.glob("*.py"))
    assert "executors.py" not in [path.name for path in files]
    fragment = re.compile(
        r"multiprocessing|\bsubprocess\b|concurrent\.futures|shard_worker|mp_context"
    )
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if fragment.search(line)
    ]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize("command", ["simulate", "explain-flow"])
def test_shard_executor_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--shards", "2", "--shard-executor", "x"])
    assert excinfo.value.code == 2
    assert "--shard-executor" in capsys.readouterr().err


def test_sync_profile_is_pinned():
    """Every remaining profile entry but ``exec_s`` is simulated-time, so it
    is pinned across commits like the golden runs."""
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 40, 8_000, seed=3)
    config = SimConfig(stack="r2c2", control_plane="per_node", seed=3)
    result = run_sharded_simulation(topology, trace, config, shards=4)
    profile = result.sync_profile
    assert "blocked_s" not in profile
    assert {
        key: profile[key]
        for key in (
            "rounds",
            "boundary_messages",
            "lookahead_ns",
            "mean_window_ns",
            "lookahead_utilization",
        )
    } == PINNED_PROFILE
    assert [
        (shard["rounds"], shard["boundary_in"], shard["boundary_out"])
        for shard in profile["shards"]
    ] == PINNED_SHARDS

