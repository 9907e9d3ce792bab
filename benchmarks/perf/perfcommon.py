"""Shared plumbing for the performance benchmark suite.

Unlike the figure benchmarks (which reproduce the *paper's* numbers), the
scripts in ``benchmarks/perf/`` track the *implementation's* speed over
time.  Each script measures a fixed-seed scenario and appends one history
entry per revision to a machine-readable JSON file checked into the repo
root (``BENCH_waterfill.json`` / ``BENCH_sim.json``), so every future PR
can show its before/after numbers and CI can fail on large regressions.

JSON schema::

    {
      "benchmark": "<file name>",
      "scenarios": {
        "<scenario>": {
          "description": "...",
          "history": [
            {"rev": "...", "commit": "...", "dirty": ..., "cpus": ...,
             "python": "...", "numpy": "...", "median_s": ..., ...metrics...},
            ...
          ]
        }
      }
    }

Conventions:

* ``--quick`` shrinks repetitions/sizes for CI smoke runs; quick numbers
  are never written to the history files.
* ``--check`` compares the fresh measurement against the last checked-in
  history entry and exits 1 when ``median_s`` regressed by more than
  ``REGRESSION_FACTOR`` (default 3x) — generous enough to absorb CI
  hardware noise, tight enough to catch accidental algorithmic slowdowns.
* ``--out FILE`` / ``--rev LABEL`` control where and under which label a
  full run is recorded.  Every recorded row is stamped by
  :func:`record_entry` with where it was measured (:func:`provenance`):
  the short commit, whether ``src/`` had uncommitted changes, the CPUs the
  process may run on, and the Python and numpy versions.  A row without
  that is not evidence; the placeholder label ``"HEAD"`` is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

from repro.core import atomic_write_text  # noqa: E402

#: A fresh run slower than ``factor * last_recorded_median`` fails --check.
REGRESSION_FACTOR = 3.0

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def make_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few reps for CI smoke runs "
                             "(results are not recorded)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the checked-in history and "
                             "exit 1 on a >%.0fx median regression"
                             % REGRESSION_FACTOR)
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON history file (default: the benchmark's "
                             "BENCH_*.json in the repo root)")
    parser.add_argument("--rev", default=None,
                        help="label recorded with this run's history entry "
                             "(default: the short commit)")
    parser.add_argument("--record", action="store_true",
                        help="append this run to the history file")
    return parser


def median_time(fn, reps: int) -> float:
    """Median wall-clock seconds of *reps* calls to *fn*."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def load_history(path: Path, benchmark: str) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"benchmark": benchmark, "scenarios": {}}


def provenance() -> dict:
    """Where a row is being measured: the checked-out commit, whether the
    measured code (``src/``) differs from it, the CPUs this process may use,
    and the interpreter and numpy versions.  An exported tree (no git)
    reads ``"unversioned"`` — never the literal ``"HEAD"``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args], capture_output=True, text=True,
            check=True, timeout=20).stdout.strip()
    try:
        commit, dirty = git("rev-parse", "--short", "HEAD"), bool(
            git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.SubprocessError):
        commit, dirty = "unversioned", None
    return {
        "commit": commit,
        "dirty": dirty,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record_entry(doc: dict, scenario: str, description: str, entry: dict) -> None:
    """Append *entry* to *scenario*'s history, stamped with
    :func:`provenance`; ``entry["rev"]`` is the caller's label and defaults
    to the commit."""
    if entry.get("rev") == "HEAD":
        raise ValueError('"HEAD" names no revision; pass --rev <label> or omit it')
    stamp = provenance()
    entry.update(stamp, rev=entry.get("rev") or stamp["commit"])
    slot = doc["scenarios"].setdefault(
        scenario, {"description": description, "history": []}
    )
    slot["description"] = description
    slot["history"].append(entry)


def save_history(path: Path, doc: dict) -> None:
    # Atomic (write → fsync → rename) so an interrupted run can never
    # leave a truncated history file checked into the repo.
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def check_regression(doc: dict, scenario: str, median_s: float) -> str:
    """Return an error string when *median_s* regressed >3x, else ''."""
    slot = doc["scenarios"].get(scenario)
    if not slot or not slot["history"]:
        return ""
    baseline = slot["history"][-1]["median_s"]
    if median_s > baseline * REGRESSION_FACTOR:
        return (
            f"{scenario}: {median_s * 1e3:.2f} ms vs checked-in "
            f"{baseline * 1e3:.2f} ms (>{REGRESSION_FACTOR:.0f}x regression)"
        )
    return ""


def report(scenario: str, entry: dict) -> None:
    parts = [f"{key}={value}" for key, value in entry.items() if key != "rev"]
    print(f"  {scenario}: " + ", ".join(parts))
