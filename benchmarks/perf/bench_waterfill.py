"""Microbenchmark: the water-fill allocator on a 512-node torus.

Measures one fill over a fixed random flow set with a warm
:class:`~repro.congestion.linkweights.WeightProvider` — the steady-state
cost every controller pays per epoch (paper Figure 8's x-axis regime).
Two regimes: every flow network-limited (one fill pass per saturating
link), and §3.3.2's mix of 90 % host-limited flows (one pass per binding
constraint — a few dozen where the table has hundreds of flows).  Records
median wall-clock, flows/s and the pass count into ``BENCH_waterfill.json``.

Run::

    PYTHONPATH=src python benchmarks/perf/bench_waterfill.py [--quick]
        [--check] [--record --rev <label>]
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfcommon import (
    REPO_ROOT,
    check_regression,
    load_history,
    make_parser,
    median_time,
    record_entry,
    report,
    save_history,
)

from repro.congestion.flowstate import FlowSpec
from repro.congestion.linkweights import WeightProvider
from repro.congestion.waterfill import waterfill
from repro.topology import TorusTopology

SCENARIOS = {
    # name: (n_flows, torus dims, reps, share of host-limited flows)
    "waterfill_512flows_8x8x8": (512, (8, 8, 8), 7, 0.0),
    "waterfill_128flows_4x4x4": (128, (4, 4, 4), 9, 0.0),
    "waterfill_512flows_8x8x8_hostlimited": (512, (8, 8, 8), 7, 0.9),
}
QUICK_REPS = 3
SEED = 42
HEADROOM = 0.05


def random_flows(topo, n_flows: int, seed: int, host_limited: float = 0.0):
    """Uniform rps pairs; a *host_limited* share demands U(0.5, 4) Gb/s.

    The demands come from a second stream, so the pairs are the same with
    and without them.
    """
    rng = random.Random(seed)
    demands = random.Random(seed + 1)
    flows = []
    for i in range(n_flows):
        src = rng.randrange(topo.n_nodes)
        dst = rng.randrange(topo.n_nodes - 1)
        if dst >= src:
            dst += 1
        limited = demands.random() < host_limited
        demand = demands.uniform(0.5e9, 4e9) if limited else math.inf
        flows.append(FlowSpec(i, src, dst, "rps", demand_bps=demand))
    return flows


def run_scenario(n_flows: int, dims: tuple, reps: int, host_limited: float) -> dict:
    topo = TorusTopology(dims)
    provider = WeightProvider(topo)
    flows = random_flows(topo, n_flows, SEED, host_limited)
    allocation = waterfill(topo, flows, provider, headroom=HEADROOM)  # warm the caches
    median_s = median_time(
        lambda: waterfill(topo, flows, provider, headroom=HEADROOM), reps
    )
    return {
        "median_s": round(median_s, 6),
        "flows_per_s": round(n_flows / median_s, 1),
        "passes": allocation.iterations,
        "capacity_frozen": sum(
            1 for link in allocation.bottleneck_link.values() if link is not None
        ),
        "n_flows": n_flows,
        "dims": "x".join(map(str, dims)),
        "seed": SEED,
    }


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_waterfill.json")
    doc = load_history(out, "bench_waterfill")
    print("bench_waterfill" + (" (quick)" if args.quick else ""))
    failures = []
    for name, (n_flows, dims, reps, host_limited) in SCENARIOS.items():
        if args.quick:
            reps = QUICK_REPS
        entry = run_scenario(n_flows, dims, reps, host_limited)
        report(name, entry)
        error = check_regression(doc, name, entry["median_s"]) if args.check else ""
        if error:
            failures.append(error)
        if args.record and not args.quick:
            entry["rev"] = args.rev
            record_entry(
                doc,
                name,
                f"one waterfill() over {n_flows} random rps flows on a "
                f"{'x'.join(map(str, dims))} torus, warm weight cache"
                + (f", {host_limited:.0%} host-limited U(0.5, 4) Gb/s"
                   if host_limited else ""),
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
