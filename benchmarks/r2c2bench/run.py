#!/usr/bin/env python3
"""r2c2bench: one benchmark for the packet simulator, the control epoch and
the daemon.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/r2c2bench/run.py --workload rack64_shared --seed 12 \\
        --seconds 8 --trace 0

The whole suite, for people (each workload in a process of its own)::

    python3 benchmarks/r2c2bench/run.py [--seed N] [--trace] [--repeat N] \\
        [--quick] [--out FILE]

``--trace 0`` (default) measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is a separate run that reports the per-layer metrics.
Exit status is non-zero on any correctness breach.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the heavy imports: setup_s counts them

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

#: BENCHMARK.json's ``run_seconds`` (selftest.py keeps the two equal).
RUN_SECONDS = 8
#: README.md names 13 as the held-out seed for claims.
DEFAULT_SEED = 12


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: interleave the workloads N times, print spreads")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; numbers mean nothing")
    parser.add_argument("--out", type=Path, help="write the full result(s) as JSON")
    return parser.parse_args(argv)


def format_value(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}"


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #


def run_one(args: argparse.Namespace) -> int:
    from speed import SpeedProbe

    probe = SpeedProbe()
    if not args.trace:
        probe.start()  # before the heavy imports: setup_s counts them too
    try:
        import harness
    except ImportError as exc:
        print(f"r2c2bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"r2c2bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = harness.run_traced(args.workload, args.seed, args.seconds, args.quick)
    else:
        result = harness.run_untraced(
            args.workload, args.seed, args.seconds, args.quick, _STARTED, probe)
    info = result.provenance
    print(f"# {result.workload}  seed={result.seed}  {'traced' if result.traced else 'untraced'}"
          f"  rev={info['rev']}{'+dirty' if info['dirty'] else ''}  cpus={info['cpus']}"
          f"  python={info['python']}  numpy={info['numpy']}")
    print(f"# input_digest={result.digests.get('input_digest')}"
          f"  sim_digest={result.digests.get('sim_digest')}"
          f"  calib_ms={info['calib_ms_before']:.2f}/{info['calib_ms_after']:.2f}"
          + (f"  snapshot_fs={info['snapshot_fs']}" if "snapshot_fs" in info else ""))
    raw = info.get("raw", {})
    if raw:
        speed = info["host_speed"]
        print(f"# host slowdown p50={speed['slowdown_p50']:.2f} p90={speed['slowdown_p90']:.2f}"
              f" disturbed={speed['disturbed_frac']:.0%} of {speed['spins']} samples;"
              f" values are at undisturbed speed, raw wall in brackets")
    for name, metric in result.metrics.items():
        print(f"{name:<48} {format_value(metric.value):>12} {metric.unit:<9} n={metric.n:<7}"
              + (f" [{format_value(raw[name])}]" if name in raw else ""))
    print(f"failed_frac {result.failed}/{result.attempted}")
    for problem in result.problems:
        print(f"BREACH: {problem}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(result.to_dict(), indent=1) + "\n")
    if not result.metrics:
        return 1
    print(result.driver_line())
    return 0 if result.correct else 1


# ---------------------------------------------------------------------- #
# The suite
# ---------------------------------------------------------------------- #


def spread_row(values, bound) -> str:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return f"{format_value(median):>12}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{format_value(median):>12} {format_value(q1):>12} {format_value(q3):>12}"
            f" {(q3 - q1) / median:>8.3f} {(max(values) - min(values)) / median:>8.3f}"
            + (f" {bound:>6.2f}" if bound is not None else ""))


def run_suite(args: argparse.Namespace) -> int:
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = [w["name"] for w in manifest["workloads"]]
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    results = []
    status = 0
    for repetition in range(args.repeat):
        passes = [0, 1] if args.trace and repetition == 0 else [0]
        for name in names:
            for traced in passes:
                out = scratch / f"suite-{os.getpid()}-{name}-{traced}.json"
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(traced), "--out", str(out)]
                if args.quick:
                    command.append("--quick")
                print(f"[{repetition + 1}/{args.repeat}] {name} trace={traced} ...",
                      file=sys.stderr, flush=True)
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode:
                    status = 1
                if out.exists():
                    results.append(json.loads(out.read_text()))
                    out.unlink()
    for name in names:
        for traced in (False, True):
            runs = [r for r in results if r["workload"] == name and r["traced"] == traced]
            if not runs:
                continue
            first = runs[0]
            info = first["provenance"]
            print(f"\n== {name} ({'traced' if traced else 'untraced'}, {len(runs)} run(s)) "
                  f"rev={info['rev']}{'+dirty' if info['dirty'] else ''} cpus={info['cpus']} "
                  f"python={info['python']} numpy={info['numpy']} seed={info['seed']}")
            print(f"   input_digest={first['digests'].get('input_digest')} "
                  f"sim_digest={first['digests'].get('sim_digest')} "
                  f"digests_agree={len({json.dumps(r['digests'], sort_keys=True) for r in runs}) == 1}"
                  f" failed={sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
            print("   calib_ms before/after: " + " ".join(
                f"{r['provenance']['calib_ms_before']:.1f}/{r['provenance']['calib_ms_after']:.1f}"
                for r in runs))
            if len(runs) > 1:
                print(f"   {'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
                      f"{'rng/med':>8} {'bound':>6}")
            for metric, first_value in first["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in runs
                          if metric in r["metrics"] and r["metrics"][metric]["value"] is not None]
                shown = spread_row(values, bounds.get(metric)) if values else f"{'null':>12}"
                print(f"   {metric:<46} {shown} {first_value['unit']:<8} n={first_value['n']}")
            for run in runs:
                for problem in run["problems"]:
                    print(f"   BREACH: {problem}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
