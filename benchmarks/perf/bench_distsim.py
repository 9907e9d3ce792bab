"""Sharded-vs-serial simulator speedup on the Fig. 12-scale workload.

Runs the same fixed-seed Poisson workload on a 512-node (8x8x8) torus
through the serial engine and through ``repro.distsim`` with K=4 process
shards, records both wall clocks and the speedup into
``BENCH_distsim.json`` — and *always* asserts byte-identity of the two
runs' canonical metrics first: a fast wrong answer is a failure, not a
result.

The speedup gate (>= 1.7x at 4 shards) only applies when the
machine actually has parallelism to offer (``os.cpu_count() >= 2``); the
entry records the CPU count honestly either way so history numbers are
interpretable.

Run::

    PYTHONPATH=src python benchmarks/perf/bench_distsim.py [--quick]
        [--check] [--record --rev <label>]
"""

from __future__ import annotations

import os
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

from repro.distsim import canonical_metrics, run_sharded_simulation
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.workloads import ParetoSizes, poisson_trace

SCENARIOS = {
    # name: (dims, n_flows, shards, reps)
    "distsim_r2c2_512node_8x8x8_k4": ((8, 8, 8), 400, 4, 1),
}
QUICK = {"dims": (4, 4), "n_flows": 80, "reps": 1}
SEED = 12
#: Required speedup at 4 shards on a multi-core machine (acceptance gate).
SPEEDUP_TARGET = 1.7


def _workload(dims: tuple, n_flows: int):
    topo = TorusTopology(dims)
    trace = poisson_trace(
        topo,
        n_flows,
        5000,
        sizes=ParetoSizes(mean_bytes=100 * 1024, shape=1.05, cap_bytes=20_000_000),
        seed=SEED,
    )
    return topo, trace


def run_scenario(dims: tuple, n_flows: int, shards: int, reps: int) -> dict:
    topo, trace = _workload(dims, n_flows)
    config = SimConfig(stack="r2c2", control_plane="per_node", seed=SEED)

    serial_times, sharded_times = [], []
    serial_digest = sharded_digest = None
    for _ in range(reps):
        started = time.perf_counter()
        serial = run_simulation(topo, trace, config)
        serial_times.append(time.perf_counter() - started)
        serial_digest = canonical_metrics(serial)

        started = time.perf_counter()
        sharded = run_sharded_simulation(
            topo, trace, config, shards=shards, executor="process"
        )
        sharded_times.append(time.perf_counter() - started)
        sharded_digest = canonical_metrics(sharded.metrics)
        sync_profile = sharded.sync_profile or {}

    if serial_digest != sharded_digest:
        raise SystemExit(
            f"BYTE-IDENTITY VIOLATION: {shards}-shard run diverged from the "
            f"serial engine on dims={dims}, n_flows={n_flows}, seed={SEED}"
        )

    serial_s = sorted(serial_times)[len(serial_times) // 2]
    sharded_s = sorted(sharded_times)[len(sharded_times) // 2]
    utilization = sync_profile.get("lookahead_utilization")
    return {
        "median_s": round(sharded_s, 4),
        "serial_s": round(serial_s, 4),
        "speedup": round(serial_s / sharded_s, 3),
        "byte_identical": True,
        "shards": shards,
        "cpus": os.cpu_count(),
        "n_flows": n_flows,
        "dims": "x".join(map(str, dims)),
        "seed": SEED,
        # Sync-profiler view of the last rep (repro.obs tentpole): where
        # the sharded wall clock went and how full the lookahead windows
        # ran — the numbers that explain a speedup shortfall.
        "rounds": sync_profile.get("rounds"),
        "blocked_s": round(sync_profile.get("blocked_s", 0.0), 4),
        "lookahead_utilization": (
            round(utilization, 4) if utilization is not None else None
        ),
    }


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_distsim.json")
    doc = load_history(out, "bench_distsim")
    print("bench_distsim" + (" (quick)" if args.quick else ""))
    failures = []
    for name, (dims, n_flows, shards, reps) in SCENARIOS.items():
        if args.quick:
            dims, n_flows, reps = QUICK["dims"], QUICK["n_flows"], QUICK["reps"]
        entry = run_scenario(dims, n_flows, shards, reps)
        report(name, entry)
        if not args.quick:
            cpus = os.cpu_count() or 1
            if cpus >= 2 and entry["speedup"] < SPEEDUP_TARGET:
                failures.append(
                    f"{name}: speedup {entry['speedup']:.2f}x < "
                    f"{SPEEDUP_TARGET}x at {shards} shards on {cpus} CPUs"
                )
            elif cpus < 2:
                print(
                    f"  (speedup gate skipped: {cpus} CPU — process shards "
                    f"cannot run concurrently here)"
                )
        if args.check and not args.quick:
            error = check_regression(doc, name, entry["median_s"])
            if error:
                failures.append(error)
        if args.record and not args.quick:
            entry = dict(entry, rev=args.rev)
            record_entry(doc, name, __doc__.splitlines()[0], entry)
    if args.record and not args.quick:
        save_history(out, doc)
        print(f"recorded to {out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
