"""Toy-scale runs of the task kinds only the paper figures use.

``crossval`` (Figure 7), ``rate_error`` (Figures 15 and 16) and
``epoch_cost`` (Figure 8) otherwise run only when the paper tables are
regenerated; here each runs once on a 2x2 torus with a handful of flows.
"""

import pytest

from repro.experiments import Scenario
from repro.experiments.spec import Task
from repro.experiments.tasks import execute_task

pytestmark = pytest.mark.experiments


def _task(kind, **params):
    scenario = Scenario(
        name=kind, kind=kind, topology="torus", dims=(2, 2),
        params={"n_flows": 6, "tau_ns": 100_000, "trace_seed": 3, **params},
    )
    return Task(scenario=scenario, replicate=0, seed=3, key=f"{kind}/r0")


def test_crossval():
    result = execute_task(_task("crossval", flow_bytes=100_000))
    assert set(result) == {
        "maze_completion_rate", "sim_completion_rate", "tput_maze_gbps",
        "tput_sim_gbps", "queue_maze_kb", "queue_sim_kb", "ks_throughput", "ks_queue",
    }
    assert 0.0 <= result["ks_throughput"] <= 1.0
    assert 0.0 <= result["ks_queue"] <= 1.0
    assert result["tput_maze_gbps"] == sorted(result["tput_maze_gbps"])
    assert len(result["tput_sim_gbps"]) == 6


def test_rate_error():
    result = execute_task(_task("rate_error", rho_ns=100_000))
    assert set(result) == {"errors"}
    assert result["errors"]
    assert all(error >= 0.0 for error in result["errors"])


def test_epoch_cost():
    rho_ns = 100_000
    task = _task("epoch_cost", rho_ns=rho_ns)
    result = execute_task(task)
    assert set(result) == {"overheads"}
    # One overhead per epoch boundary up to the last nominal departure.
    from repro.experiments.tasks import _make_trace, _topology

    trace = _make_trace(task.scenario, task.seed, _topology(task.scenario))
    last = max(a.start_ns + a.size_bytes * 8 for a in trace)
    assert len(result["overheads"]) == last // rho_ns
    assert all(overhead >= 0.0 for overhead in result["overheads"])
