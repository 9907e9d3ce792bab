"""Self-test of r2c2bench on ``--quick`` sizes (numbers mean nothing here).

Run with ``PYTHONPATH=src python -m pytest benchmarks/r2c2bench/selftest.py``
(``benchmarks/conftest.py`` imports ``repro``).  Not under ``tests/``, so
tier-1 is unchanged.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run as bench_cli  # noqa: E402
from tracing import BOUNDARIES, Boundary, Tracer  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def run_cli(*args: str, cwd: Path = REPO, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# BENCHMARK.json against the code's own tables
# ---------------------------------------------------------------------- #


def test_manifest_repeats_the_code_tables():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/r2c2bench"]
    assert MANIFEST["command"] == ["python3", "benchmarks/r2c2bench/run.py"]
    assert MANIFEST["run_seconds"] == bench_cli.RUN_SECONDS
    assert MANIFEST["workloads"] == [
        {"name": name, "why": why} for name, (why, _) in harness.WORKLOADS.items()]
    assert MANIFEST["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in harness.END_TO_END]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER]


def test_manifest_is_inside_the_contract_limits():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in MANIFEST[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16 and 1 <= len(MANIFEST["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in MANIFEST["end_to_end"])}]
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# ---------------------------------------------------------------------- #
# The driver's view: one workload, last line is the result
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    done = run_cli("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(set(m) == {"value", "unit"} and m["value"] > 0 for m in result["metrics"].values())
    assert "input_digest=" in done.stdout and "sim_digest=" in done.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload):
    done = run_cli("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", "1", "--quick")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["bench.missing_boundaries"] == 0
    # every micro is workload-independent, so it is never zero
    assert all(values[m.name] > 0 for m in layers.PER_LAYER if m.kind == "micro")
    entered = {"rack": "sim.network.packet_hops",
               "epoch": "congestion.controller.recompute_demand_ms_p50",
               "daemon": "service.state.query_us_p50"}
    for prefix, metric in entered.items():
        assert (values[metric] > 0) == workload.startswith(prefix)


def test_same_seed_same_inputs_other_seed_other_inputs():
    from repro.topology import TorusTopology

    topology = TorusTopology((4, 4, 4))
    assert inputs.digest(inputs.rack_trace(topology, 200, 3)) == \
        inputs.digest(inputs.rack_trace(topology, 200, 3))
    assert inputs.digest(inputs.rack_trace(topology, 200, 3)) != \
        inputs.digest(inputs.rack_trace(topology, 200, 4))
    for seed in range(5):
        trace = inputs.rack_trace(topology, 1000, seed)
        byte_hops = sum(a.size_bytes * topology.distance(a.src, a.dst) for a in trace)
        nominal = sum(a.size_bytes for a in trace) * topology.average_distance()
        assert abs(byte_hops / nominal - 1) <= inputs.BYTE_HOP_TOLERANCE
    ops = inputs.daemon_input(64, 64, 2000, 7)
    assert ops == inputs.daemon_input(64, 64, 2000, 7)
    live = {spec.flow_id for spec in ops.population}
    for op in ops.ops:  # every query and finish names a live flow: no op can fail
        if op[0] == inputs.ANNOUNCE:
            live.add(op[1].flow_id)
        else:
            assert op[1] in live
            if op[0] == inputs.FINISH:
                live.remove(op[1])
        assert 64 - 8 <= len(live) <= 64 + 8


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "r2c2bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = run_cli("--workload", "rack64_shared", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path,
                   script=tmp_path / "benchmarks" / "r2c2bench" / "run.py")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ---------------------------------------------------------------------- #
# The tracer
# ---------------------------------------------------------------------- #


def test_wrappers_are_removed_after_a_traced_run():
    from repro.sim.network import OutputPort

    # (the package re-exports the function under the submodule's name)
    controller = sys.modules["repro.congestion.controller"]
    waterfill = sys.modules["repro.congestion.waterfill"]

    send, fill = OutputPort.__dict__["send"], waterfill.waterfill
    result = harness.run_traced("rack64_shared", seed=5, seconds=0.5, quick=True)
    assert result.correct and result.metrics["sim.network.packet_hops"].value > 0
    assert OutputPort.__dict__["send"] is send
    assert waterfill.waterfill is fill and controller.waterfill is fill


def test_unresolvable_boundary_reads_null_and_is_counted_not_raised():
    renamed = tuple(
        Boundary(b.layer, "repro.sim.network:OutputPort.transmit", b.per_call)
        if b.name == "OutputPort.send" else b for b in BOUNDARIES)
    result = harness.run_traced("rack64_shared", seed=5, seconds=0.5, quick=True,
                                tracer=Tracer(renamed))
    assert result.correct
    assert result.metrics["bench.missing_boundaries"].value == 1
    for name in ("sim.network.self_s", "sim.network.packet_hops",
                 "sim.network.ns_per_packet_hop"):
        assert result.metrics[name].value is None
    assert result.metrics["sim.engine.self_s"].value > 0
    line = json.loads(result.driver_line())  # the driver still gets numbers
    assert line["metrics"]["sim.network.self_s"]["value"] == 0.0
    assert result.to_dict()["metrics"]["sim.network.self_s"]["value"] is None
