"""Microbenchmark: incremental vs full-recompute allocation under churn.

The control-plane daemon's whole reason to exist is that a single flow
arrival or departure should cost O(affected links), not a rack-wide
water-fill.  This benchmark loads a 512-flow population onto an 8x8x8
torus — single-path (ecmp), where a flow shares links with a handful of
others, and sprayed (rps), where it shares links with nearly all of them —
and measures:

* ``full_recompute`` — one from-scratch water-fill over the population
  (what every mutation would cost without the incremental allocator);
* ``incremental_update`` — one single-flow arrival+departure cycle
  through :class:`~repro.congestion.IncrementalWaterfill` (time / 2 per
  operation), with the size of the affected sets it patched;
* ``sustained_churn`` — a seeded arrival/departure mix driven through
  the daemon's :class:`~repro.service.state.ServiceState`, reported as
  operations per second;
* the patch-vs-scratch **crossover**: the same cycles with the strategy
  forced either way, over populations whose affected sets span two orders
  of magnitude.  ``_PATCH_NNZ_FLOOR`` / ``_PATCH_NNZ_SHARE`` in
  ``congestion/incremental.py`` are read from this table.

``--check`` additionally enforces a speedup floor on the ecmp table: the
median single-flow update must be at least 20x faster than the median full
recompute (quick mode shrinks sizes and skips the speedup gate — small
racks have less locality for the incremental path to exploit), and on the
rps table at most 2x slower (it *is* a full recompute there).

Run::

    PYTHONPATH=src python benchmarks/perf/bench_service_churn.py [--quick]
        [--check] [--record --rev <label>]
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
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

from repro.congestion import incremental
from repro.congestion.flowstate import FlowSpec
from repro.congestion.incremental import IncrementalWaterfill
from repro.service import ServiceState
from repro.topology import TorusTopology
from repro.validation.churn import churn_ops

SEED = 42
#: Single-flow updates vs one full recompute on the 512-flow ecmp rack
#: (enforced by --check in full mode only).  PR 8 set 5x when a scratch fill
#: cost 26 ms and one update 2.6 ms; PR 21 cut the fill to ~4 ms, so that floor
#: let an update cost 0.8 ms.  Re-derived against that fill (BENCH_service.json,
#: pr23 rows, three rounds a side): the numpy patch, rack-sized work per op,
#: measured 12.5-14x, the scalar patch 34x; 20x is what a return to the former
#: breaks with 1.7x left for a noisy host.
SPEEDUP_FLOOR = 20.0
#: ... and on the rps rack, where the op goes to the scratch fill: the
#: closure's bail-out plus a cold level matrix on top of the fill itself.
SPRAYED_SLOWDOWN_CEILING = 2.0

FULL = {"dims": (8, 8, 8), "n_flows": 512, "reps": 7, "churn_ops": 400}
QUICK = {"dims": (4, 4, 4), "n_flows": 128, "reps": 3, "churn_ops": 100}


def random_flows(topo, n_flows: int, seed: int, protocol: str = "ecmp",
                 inf_share: float = 0.1):
    """Mostly host-limited demands (paper 3.3.2), a few network-limited.

    Demand-limited flows are what gives single-flow updates locality: an
    all-infinite-demand population welds the rack into one saturation
    component and every patch degenerates to a near-full refill.
    """
    rng = random.Random(seed)
    flows = []
    for i in range(n_flows):
        src = rng.randrange(topo.n_nodes)
        dst = rng.randrange(topo.n_nodes - 1)
        if dst >= src:
            dst += 1
        demand = math.inf if rng.random() < inf_share else rng.uniform(0.5, 4.0) * 1e9
        flows.append(FlowSpec(i, src, dst, protocol, demand_bps=demand))
    return flows


def build_population(dims, n_flows, protocol="ecmp", inf_share=0.1):
    topo = TorusTopology(dims)
    inc = IncrementalWaterfill(topo)
    for spec in random_flows(topo, n_flows, SEED, protocol, inf_share):
        inc.add_flow(spec)
    return topo, inc


def watch_patches(inc) -> list:
    """``(flows, non-zeros)`` of every affected set *inc* patches and commits
    (an op that does not fall back commits exactly one)."""
    sizes = []
    try_patch = inc._try_patch

    def watched(affected, *rest):
        size = (len(affected), sum(len(inc._rows[fid][0]) for fid in affected))
        committed = try_patch(affected, *rest)
        if committed:
            sizes.append(size)
        return committed

    inc._try_patch = watched
    return sizes


def _spread(values) -> dict:
    ranked = sorted(values)
    return {"p50": ranked[len(ranked) // 2], "p90": ranked[len(ranked) * 9 // 10],
            "max": ranked[-1]}


def bench_affected_sets(inc, n_cycles) -> dict:
    """Retire and re-announce random live flows; how much does a patch touch?"""
    sizes = watch_patches(inc)
    rng = random.Random(SEED + 2)
    live = inc.flows()
    for _ in range(n_cycles):
        spec = rng.choice(live)
        inc.remove_flow(spec.flow_id)
        inc.add_flow(spec)
    del inc._try_patch  # back to the class's
    if not sizes:
        return {}
    return {"affected_flows": _spread([flows for flows, _ in sizes]),
            "affected_nnz": _spread([nnz for _, nnz in sizes])}


#: (protocol, share of network-limited flows, retire+announce cycles): the
#: network-limited share is what grows ecmp affected sets; an rps set is most
#: of the table whatever the demands.
CROSSOVER_TABLES = (("ecmp", 0.0, 120), ("ecmp", 0.3, 100), ("ecmp", 1.0, 30),
                    ("rps", 0.0, 5), ("rps", 0.1, 5))


def bench_crossover(dims, n_flows) -> list:
    """Each table's cycles with the patch forced, then with scratch forced.

    The patch's cost per non-zero is read off the larger half of the sets it
    patched (where its fixed cost weighs least); at that price it meets the
    table's scratch median at ``scratch / price`` non-zeros.
    """
    floor, share = incremental._PATCH_NNZ_FLOOR, incremental._PATCH_NNZ_SHARE
    rows = []
    try:
        for protocol, inf_share, cycles in CROSSOVER_TABLES:
            incremental._PATCH_NNZ_FLOOR, incremental._PATCH_NNZ_SHARE = math.inf, 0.0
            _, inc = build_population(dims, n_flows, protocol, inf_share)
            sizes = watch_patches(inc)
            rng = random.Random(SEED + 3)
            live = inc.flows()

            def cycles_timed(n):
                """``(seconds, fell back to scratch?)`` per single-flow op."""
                out = []
                for _ in range(n):
                    spec = rng.choice(live)
                    for op, arg in ((inc.remove_flow, spec.flow_id), (inc.add_flow, spec)):
                        fallbacks = inc.fallback_recomputes
                        started = time.perf_counter()
                        op(arg)
                        out.append((time.perf_counter() - started,
                                    inc.fallback_recomputes > fallbacks))
                return out

            patched = [s for s, fell_back in cycles_timed(cycles) if not fell_back]
            xs = [nnz for _, nnz in sizes]
            incremental._PATCH_NNZ_FLOOR = -1.0  # every closure is over budget
            scratch_s = statistics.median(s for s, _ in cycles_timed(min(cycles, 12)))
            per_nnz = statistics.median(
                s / nnz for s, nnz in zip(patched, xs) if nnz >= statistics.median(xs))
            rows.append({
                "table": f"{protocol}, {inf_share:.0%} network-limited",
                "table_nnz": inc._nnz,
                "patched_nnz": _spread(xs),
                "patch_us_per_nnz": round(per_nnz * 1e6, 2),
                "scratch_ms": round(scratch_s * 1e3, 2),
                "crossover_nnz": round(scratch_s / per_nnz),
                "crossover_share": round(scratch_s / per_nnz / inc._nnz, 3),
            })
    finally:
        incremental._PATCH_NNZ_FLOOR, incremental._PATCH_NNZ_SHARE = floor, share
    return rows


def bench_full_recompute(inc, reps) -> float:
    inc.scratch_allocation()  # warm the weight caches
    return median_time(lambda: inc.scratch_allocation(), reps)


def bench_incremental_update(topo, inc, n_flows, reps, protocol="ecmp") -> float:
    """Median seconds per single-flow operation over 16 seeded arrivals,
    each added and retired *reps* times (where a flow lands decides how much
    it touches: one flow is an anecdote)."""
    per_op = []
    for i, drawn in enumerate(random_flows(topo, 16, SEED + 1)):
        extra = FlowSpec(
            n_flows + 1 + i, drawn.src, drawn.dst, protocol, demand_bps=drawn.demand_bps
        )

        def cycle():
            inc.add_flow(extra)
            inc.remove_flow(extra.flow_id)

        cycle()  # warm
        per_op.append(median_time(cycle, reps) / 2.0)
    return statistics.median(per_op)


def bench_sustained_churn(dims, n_ops) -> dict:
    topo = TorusTopology(dims)
    state = ServiceState(topo)
    ops = churn_ops(SEED, topo.n_nodes, n_ops, max_flows=64,
                    capacity_bps=topo.capacity_bps)
    specs = {}
    started = time.perf_counter()
    for op in ops:
        if op["op"] == "add":
            specs[op["spec"].flow_id] = op["spec"]
            state.announce(op["spec"])
        elif op["op"] == "remove":
            specs.pop(op["flow_id"], None)
            state.finish(op["flow_id"])
        else:
            spec = specs[op["flow_id"]].with_demand(op["demand_bps"])
            specs[op["flow_id"]] = spec
            state.announce(spec)
    elapsed = time.perf_counter() - started
    stats = state.incremental.stats()
    return {
        "ops_per_s": round(n_ops / elapsed, 1),
        "incremental_ratio": round(stats["incremental_ratio"], 4),
    }


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_service.json")
    doc = load_history(out, "bench_service_churn")
    cfg = QUICK if args.quick else FULL
    dims, n_flows, reps = cfg["dims"], cfg["n_flows"], cfg["reps"]
    label = f"{n_flows}flows_{'x'.join(map(str, dims))}"
    print("bench_service_churn" + (" (quick)" if args.quick else ""))
    failures = []
    entries = {}

    for protocol in ("ecmp", "rps"):
        topo, inc = build_population(dims, n_flows, protocol)
        full_s = bench_full_recompute(inc, reps)
        update_s = bench_incremental_update(topo, inc, n_flows, reps, protocol)
        speedup = full_s / update_s if update_s > 0 else float("inf")
        entry = {
            "median_s": round(update_s, 9),
            "full_recompute_s": round(full_s, 6),
            "speedup": round(speedup, 2),
            **bench_affected_sets(inc, cfg["churn_ops"] // 8),
            "fallback_reasons": inc.stats()["fallback_reasons"],
            "n_flows": n_flows,
            "dims": "x".join(map(str, dims)),
            "seed": SEED,
        }
        if protocol == "ecmp":
            churn = bench_sustained_churn(dims, cfg["churn_ops"])
            entry["churn_ops_per_s"] = churn["ops_per_s"]
            entry["churn_incremental_ratio"] = churn["incremental_ratio"]
            name = f"incremental_update_{label}"
            if args.check and not args.quick and speedup < SPEEDUP_FLOOR:
                failures.append(
                    f"{name}: incremental update only {speedup:.1f}x faster than "
                    f"full recompute (floor {SPEEDUP_FLOOR:.0f}x)"
                )
        else:
            name = f"incremental_update_rps_{label}"
            if args.check and not args.quick and speedup < 1.0 / SPRAYED_SLOWDOWN_CEILING:
                failures.append(
                    f"{name}: a sprayed update costs {1.0 / speedup:.1f}x a full "
                    f"recompute (ceiling {SPRAYED_SLOWDOWN_CEILING:.0f}x): the "
                    f"affected-set route to the scratch fill is not taken"
                )
        report(name, entry)
        entries[name] = (protocol, entry)
        if args.check:
            error = check_regression(doc, name, entry["median_s"])
            if error:
                failures.append(error)

    # (a tree without the strategy constants has no choice to measure: that
    # is how the pr23-parent rows were taken)
    if hasattr(incremental, "_PATCH_NNZ_FLOOR") and not args.quick:
        crossover = bench_crossover(dims, n_flows)
        print(f"  patch-vs-scratch crossover (floor {incremental._PATCH_NNZ_FLOOR}, "
              f"share {incremental._PATCH_NNZ_SHARE}):")
        for row in crossover:
            print("    " + ", ".join(f"{key}={value}" for key, value in row.items()))
        entries[f"incremental_update_{label}"][1]["crossover"] = crossover

    if args.record and not args.quick:
        for name, (protocol, entry) in entries.items():
            entry["rev"] = args.rev
            record_entry(
                doc,
                name,
                f"single-flow add/remove through IncrementalWaterfill (median over "
                f"16 seeded arrivals since pr23; one arrival before) vs one "
                f"scratch waterfill over {n_flows} random {protocol} flows on a "
                f"{'x'.join(map(str, dims))} torus, the sizes of the affected sets "
                f"patched"
                + (f", a {cfg['churn_ops']}-op sustained churn mix through ServiceState "
                   f"and the patch-vs-scratch crossover table"
                   if protocol == "ecmp" else ""),
                entry,
            )
        save_history(out, doc)
        print(f"recorded to {out}")
    for error in failures:
        print(f"REGRESSION: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
