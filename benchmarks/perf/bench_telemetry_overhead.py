"""Telemetry overhead guard: disabled telemetry must cost <= 2 %.

Runs the identical fixed-seed simulation three ways and compares best-of-N
wall clock:

* ``off``  — no telemetry object at all (``telemetry=None``), the baseline;
* ``null`` — a telemetry session with both sinks *off*
  (``TelemetryConfig(metrics=False, trace=False)``): both sinks are
  ``None``, so the simulator builds no probe and every instrumented site
  holds ``None``; this measures what handing a disabled session to the
  run costs over handing it none;
* ``on``   — full metrics + trace recording, reported for reference only;
* ``obs``  — causal FCT tracer + crash flight recorder
  (``SimConfig(obs=True, flight=True)``, :mod:`repro.obs`), reference only.

``--check`` fails when ``null`` exceeds ``off`` by more than
``OVERHEAD_BUDGET`` (2 %) — the contract that lets instrumentation stay
threaded through hot paths unconditionally.  The ``off`` baseline already
executes every *disabled* repro.obs hook (they are ``is not None`` guards
compiled into the engine), so the gate covers the tracer's disabled path
too.  Reps are interleaved (off/null/on/obs, ...) and compared on the
*minimum*, which is the noise-robust estimator for "how fast can this
code path go".

Run::

    PYTHONPATH=src python benchmarks/perf/bench_telemetry_overhead.py
        [--quick] [--check] [--record --rev <label>]
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

#: Disabled-telemetry (both sinks off) runtime may exceed the no-telemetry
#: baseline by at most this fraction.
OVERHEAD_BUDGET = 0.02

SCENARIO = "sim_r2c2_telemetry_overhead_4x4x4"
SEED = 0
FULL = (200, (4, 4, 4), 7)   # n_flows, dims, interleaved reps per mode
QUICK = (60, (4, 4, 4), 15)


def _telemetry_for(mode: str):
    if mode in ("off", "obs"):
        return None
    if mode == "null":
        return Telemetry(TelemetryConfig(metrics=False, trace=False))
    return Telemetry(TelemetryConfig())


def _config_for(mode: str) -> SimConfig:
    enabled = mode == "obs"
    return SimConfig(stack="r2c2", seed=SEED, obs=enabled, flight=enabled)


def run_scenario(n_flows: int, dims: tuple, reps: int) -> dict:
    topo = TorusTopology(dims)
    trace = poisson_trace(
        topo,
        n_flows,
        5000,
        sizes=ParetoSizes(mean_bytes=100 * 1024, shape=1.05, cap_bytes=20_000_000),
        seed=SEED,
    )
    modes = ("off", "null", "on", "obs")
    best = {mode: float("inf") for mode in modes}
    for _ in range(reps):
        for mode in modes:
            telemetry = _telemetry_for(mode)
            started = time.perf_counter()
            run_simulation(topo, trace, _config_for(mode), telemetry=telemetry)
            best[mode] = min(best[mode], time.perf_counter() - started)
    null_overhead = best["null"] / best["off"] - 1.0
    on_overhead = best["on"] / best["off"] - 1.0
    obs_overhead = best["obs"] / best["off"] - 1.0
    return {
        # median_s keys the generic >3x regression gate; the disabled run
        # is the one whose speed this benchmark exists to protect.
        "median_s": round(best["null"], 4),
        "best_off_s": round(best["off"], 4),
        "best_null_s": round(best["null"], 4),
        "best_on_s": round(best["on"], 4),
        "best_obs_s": round(best["obs"], 4),
        "null_overhead_pct": round(null_overhead * 100, 2),
        "on_overhead_pct": round(on_overhead * 100, 2),
        "obs_overhead_pct": round(obs_overhead * 100, 2),
        "n_flows": n_flows,
        "dims": "x".join(map(str, dims)),
        "reps": reps,
        "seed": SEED,
    }


def main() -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args()
    out = args.out or (REPO_ROOT / "BENCH_telemetry.json")
    doc = load_history(out, "bench_telemetry_overhead")
    print("bench_telemetry_overhead" + (" (quick)" if args.quick else ""))
    n_flows, dims, reps = QUICK if args.quick else FULL
    entry = run_scenario(n_flows, dims, reps)
    report(SCENARIO, entry)
    failures = []
    if args.check:
        # The overhead budget gates quick runs too: it is a ratio on one
        # machine, so unlike absolute timings it is CI-comparable.
        overhead = entry["null_overhead_pct"] / 100.0
        if overhead > OVERHEAD_BUDGET:
            failures.append(
                f"{SCENARIO}: disabled-telemetry overhead "
                f"{entry['null_overhead_pct']:.2f}% exceeds the "
                f"{OVERHEAD_BUDGET * 100:.0f}% budget"
            )
        if not args.quick:
            error = check_regression(doc, SCENARIO, entry["median_s"])
            if error:
                failures.append(error)
    if args.record and not args.quick:
        entry["rev"] = args.rev
        record_entry(
            doc,
            SCENARIO,
            f"interleaved off/null/on/obs telemetry runs of {n_flows} Poisson "
            f"pareto flows, r2c2 stack, {'x'.join(map(str, dims))} torus, "
            f"seed {SEED}; best-of-{reps} per mode",
            entry,
        )
        save_history(out, doc)
        print(f"recorded to {out}")
    for error in failures:
        print(f"OVERHEAD: {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
