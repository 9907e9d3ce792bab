"""Run one workload once — untraced for the end-to-end metrics, traced for
the per-layer ones — and package the result with its provenance."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

import layers
import micro
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Interval, wall_s

#: (name, unit, better, bound).  ``BENCHMARK.json`` repeats this list;
#: ``selftest.py`` keeps the two equal.  What "op" and "op2" are on each
#: workload is fixed by the workload class (README.md has the table).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_slow_ms", "ms", "lower", 0.25),
    ("op2_p50_ms", "ms", "lower", 0.25),
    ("op2_slow_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

#: ``setup()`` is repeated and the median reported: three times, or twice
#: once two set-ups have taken this long (epoch_churn512 and
#: daemon_durable512 take 4-6 s each).
SETUP_REPEATS = 3
SETUP_BUDGET_S = 8.0


@dataclass
class Metric:
    value: Optional[float]
    unit: str
    n: int


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    problems: List[str]
    digests: Dict[str, str]
    provenance: Dict[str, object]
    spans: List[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted >= 1

    def driver_line(self) -> str:
        """The contract's last stdout line.  An unresolved per-layer value
        is printed as 0 there (it must be a number); ``--out`` keeps the
        ``null`` and ``bench.missing_boundaries`` counts it."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": 0.0 if m.value is None else m.value, "unit": m.unit}
                for name, m in self.metrics.items()
            },
        })

    def to_dict(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "traced": self.traced,
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "failed_frac": self.failed / max(self.attempted, 1),
            "problems": self.problems, "digests": self.digests,
            "metrics": {name: vars(m) for name, m in self.metrics.items()},
            "provenance": self.provenance, "spans": self.spans,
        }


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #


def calib_ms() -> float:
    """A fixed pure-Python spin.  Timed before and after each workload: if
    the two differ, the machine changed speed under the run."""
    started = time.perf_counter_ns()
    total = 0
    for i in range(300_000):
        total += i * i
    return (time.perf_counter_ns() - started) / 1e6


def git_revision(repo: Path) -> Tuple[str, Optional[bool]]:
    """``(short rev, dirty)`` from git, or ``("unversioned", None)`` in an
    exported tree; never the literal ``"HEAD"``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True,
            check=True, timeout=20).stdout.strip()
    try:
        return git("rev-parse", "--short", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unversioned", None


def provenance(seed: int, seconds: float, quick: bool) -> Dict[str, object]:
    rev, dirty = git_revision(Path(__file__).resolve().parents[2])
    return {
        "rev": rev, "dirty": dirty,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": seed, "seconds": seconds, "quick": quick,
    }


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def slow_case(samples: Sequence[float], rule: str) -> float:
    """``"mean"`` or a percentile such as ``"p90"``."""
    if rule == "mean" or len(samples) < 2:
        return statistics.fmean(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[int(rule[1:]) - 1]


# ---------------------------------------------------------------------- #
# Untraced: the end-to-end metrics
# ---------------------------------------------------------------------- #


def run_untraced(name: str, seed: int, seconds: float, quick: bool,
                 process_started: float, probe: SpeedProbe) -> Result:
    """*probe* has been sampling since *process_started*; every timing is
    reported at the host's undisturbed speed (``speed.py``), with the raw
    wall beside it in ``provenance["raw"]``."""
    imported = (process_started, time.perf_counter())
    workload = WORKLOADS[name][1](seed, quick)
    info = provenance(seed, seconds, quick)
    info["calib_ms_before"] = calib_ms()
    setups: List[Interval] = []
    try:
        while True:
            workload.close()
            started = time.perf_counter()
            workload.setup()
            setups.append((started, time.perf_counter()))
            if quick or len(setups) >= SETUP_REPEATS or (
                    len(setups) >= 2 and wall_s(setups) >= SETUP_BUDGET_S):
                break
        samples = workload.run(seconds)
        probe.stop()
        verdict = workload.verify()
        digests = {"input_digest": workload.input_digest(), "sim_digest": workload.sim_digest()}
    finally:
        workload.close()
    info["calib_ms_after"] = calib_ms()
    info["host_speed"] = probe.summary()
    info["operations"] = {"op": workload.primary_op, "op2": workload.secondary_op,
                          "slow": workload.slow, "ops_per_s": workload.work_unit}
    if getattr(workload, "snapshot_fs", None):
        info["snapshot_fs"] = workload.snapshot_fs
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(verdict.problems)
    metrics: Dict[str, Metric] = {}
    if not samples.primary or not samples.secondary:
        problems.append("the timed loop produced no sample of one operation class")
    else:
        def measure(scale) -> Dict[str, Tuple[float, int]]:
            primary = [scale(op) for op in samples.primary]
            secondary = [scale(op) for op in samples.secondary]
            return {
                "setup_s": (scale(imported) + statistics.median(map(scale, setups)), len(setups)),
                "op_p50_ms": (statistics.median(primary) * 1e3, len(primary)),
                "op_slow_ms": (slow_case(primary, workload.slow) * 1e3, len(primary)),
                "op2_p50_ms": (statistics.median(secondary) * 1e3, len(secondary)),
                "op2_slow_ms": (slow_case(secondary, workload.slow) * 1e3,
                                len(secondary)),
                "ops_per_s": workload.throughput(samples, scale),
                "peak_rss_mb": (own_rss + getattr(workload, "daemon_rss_mb", 0.0), 1),
            }
        values = measure(probe.scaled)
        info["raw"] = {key: value for key, (value, _) in
                       measure(lambda op: op[1] - op[0]).items()}
        metrics = {name_: Metric(values[name_][0], unit, values[name_][1])
                   for name_, unit, _better, _bound in END_TO_END}
    return Result(name, seed, False, metrics, verdict.attempted, verdict.failed,
                  problems, digests, info)


# ---------------------------------------------------------------------- #
# Traced: the per-layer metrics
# ---------------------------------------------------------------------- #


def run_traced(name: str, seed: int, seconds: float, quick: bool,
               tracer: Optional[Tracer] = None) -> Result:
    """Untraced reference pass, traced pass, then the micro-measurements.

    *tracer* is injectable so the self-test can hand in a wrapper table
    with a boundary that does not resolve.
    """
    workload = WORKLOADS[name][1](seed, quick)
    tracer = tracer if tracer is not None else Tracer()
    info = provenance(seed, seconds, quick)
    calib_before = calib_ms()
    try:
        extras = workload.trace(seconds, tracer)
        verdict = workload.verify()
        digests = {"input_digest": workload.input_digest(), "sim_digest": workload.sim_digest()}
    finally:
        tracer.uninstall()
        workload.close()
    values = layers.from_tracer(tracer, epochs=int(extras.pop("epochs", 0)))
    values.update(extras)
    values.update({part: (wall, 1) for part, wall in workload.setup_parts.items()})
    values.update(micro.run_all())
    calib_after = calib_ms()
    info["calib_ms_before"], info["calib_ms_after"] = calib_before, calib_after
    values["bench.calib_ms"] = (statistics.median([calib_before, calib_after]), 2)
    values = layers.complete(values)
    info["missing_boundaries"] = tracer.missing
    info["unresolved_metrics"] = layers.missing(values)
    units = {metric.name: metric.unit for metric in layers.PER_LAYER}
    metrics = {name_: Metric(value, units[name_], n) for name_, (value, n) in values.items()}
    return Result(name, seed, True, metrics, verdict.attempted, verdict.failed,
                  list(verdict.problems), digests, info, spans=tracer.spans())

