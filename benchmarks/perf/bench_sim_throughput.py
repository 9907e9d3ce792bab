"""End-to-end simulator throughput on a fixed-seed Poisson workload.

Runs the full R2C2 stack on a 64-node torus, once with the shared control
plane and once per node (every node learns each broadcast into its own
controller), and records wall-clock and events/s into ``BENCH_sim.json``.  Note that
``events_processed`` is not comparable across revisions that change event
batching (a coalesced broadcast fan-out counts as one event); wall-clock
for the identical workload is the cross-revision metric.

Run::

    PYTHONPATH=src python benchmarks/perf/bench_sim_throughput.py [--quick]
        [--check] [--record --rev <label>]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfcommon import (
    REPO_ROOT,
    check_regression,
    load_history,
    make_parser,
    record_entry,
    report,
    save_history,
)

from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.workloads import ParetoSizes, poisson_trace

SCENARIOS = {
    # name: (n_flows, dims, control_plane, reps)
    "sim_r2c2_200flows_4x4x4": (200, (4, 4, 4), "shared", 3),
    "sim_r2c2_pernode_200flows_4x4x4": (200, (4, 4, 4), "per_node", 3),
}
QUICK_FLOWS = 60
SEED = 0


def _scenario_workload(n_flows: int, dims: tuple):
    topo = TorusTopology(dims)
    trace = poisson_trace(
        topo,
        n_flows,
        5000,
        sizes=ParetoSizes(mean_bytes=100 * 1024, shape=1.05, cap_bytes=20_000_000),
        seed=SEED,
    )
    return topo, trace


def _config(control_plane: str) -> SimConfig:
    return SimConfig(stack="r2c2", seed=SEED, control_plane=control_plane)


def telemetry_snapshot(n_flows: int, dims: tuple, control_plane: str) -> dict:
    """Compact metrics snapshot from an extra, *untimed* instrumented run.

    Counters, gauges and histogram quantiles only — per-link series would
    bloat the history file.  Recorded alongside the timings so each
    revision's entry carries the workload's telemetry fingerprint (wire
    bytes, epochs, queue occupancy) next to its wall clock.
    """
    topo, trace = _scenario_workload(n_flows, dims)
    telemetry = Telemetry(TelemetryConfig(trace=False, per_link_series=False))
    run_simulation(topo, trace, _config(control_plane), telemetry=telemetry)
    snap = telemetry.metrics.snapshot()
    return {
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histogram_p99": {
            name: hist.quantile(0.99)
            for name, hist in (
                (h.name, h)
                for h in telemetry.metrics.instruments()
                if hasattr(h, "quantile")
            )
        },
    }


def run_scenario(n_flows: int, dims: tuple, control_plane: str, reps: int) -> dict:
    topo, trace = _scenario_workload(n_flows, dims)
    runs = []
    for _ in range(reps):
        started = time.perf_counter()
        metrics = run_simulation(topo, trace, _config(control_plane))
        runs.append((time.perf_counter() - started, metrics.events_processed))
    runs.sort()
    median_s, events = runs[len(runs) // 2]
    return {
        "median_s": round(median_s, 4),
        "events_processed": events,
        "events_per_s": round(events / median_s, 1),
        "n_flows": n_flows,
        "dims": "x".join(map(str, dims)),
        "seed": SEED,
        "control_plane": control_plane,
    }


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_sim.json")
    doc = load_history(out, "bench_sim_throughput")
    print("bench_sim_throughput" + (" (quick)" if args.quick else ""))
    failures = []
    for name, (n_flows, dims, control_plane, reps) in SCENARIOS.items():
        if args.quick:
            n_flows, reps = QUICK_FLOWS, 1
        entry = run_scenario(n_flows, dims, control_plane, reps)
        report(name, entry)
        # Quick mode simulates a smaller workload; its timings are not
        # comparable to the recorded full-size history, so --check only
        # gates full runs.
        if args.check and not args.quick:
            error = check_regression(doc, name, entry["median_s"])
            if error:
                failures.append(error)
        if args.record and not args.quick:
            entry["rev"] = args.rev
            entry["telemetry"] = telemetry_snapshot(n_flows, dims, control_plane)
            record_entry(
                doc,
                name,
                f"run_simulation of {n_flows} Poisson pareto flows, r2c2 "
                f"stack, {'x'.join(map(str, dims))} torus, seed {SEED}"
                + ("" if control_plane == "shared" else f", {control_plane} control plane"),
                entry,
            )
    if args.record and not args.quick:
        save_history(out, doc)
        print(f"recorded to {out}")
    for error in failures:
        print(f"REGRESSION: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
