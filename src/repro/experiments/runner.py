"""The campaign executor: parallel, fault-tolerant, resumable.

:func:`run_campaign` expands a :class:`~repro.experiments.spec.Campaign`
into tasks, satisfies as many as possible from the content-addressed
result cache, and executes the rest — on a
:class:`concurrent.futures.ProcessPoolExecutor` when ``workers > 1``,
degrading gracefully to serial in-process execution when the pool cannot
be created (restricted environments) or breaks mid-flight.

Fault tolerance:

* every completed task is persisted to the cache *immediately* and
  atomically, so a killed campaign resumes with only missing tasks re-run
  (wall-clock measurements, :attr:`Scenario.measures_wallclock`, are
  re-measured on every run instead);
* worker failures are retried with exponential backoff up to
  ``max_retries`` times;
* per-task timeouts abandon stuck workers and retry (pool mode; a serial
  run cannot preempt itself — overruns are recorded in the manifest);
* crash simulation reuses :class:`repro.validation.FaultEvent`: a
  ``kill_campaign`` event stops the run after N fresh tasks (the CLI's
  ``--max-tasks``), a ``worker_failure`` event forces injected failures
  for a task key without touching its fingerprint.

Determinism: task seeds come from :func:`repro.core.derive_seed`, results
are keyed and aggregated in expansion order (never completion order), so
a 2-worker run is byte-identical to a serial run of the same campaign.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.ioutil import atomic_write_json
from ..errors import ExperimentError
from .cache import ResultCache
from .spec import CACHE_SCHEMA_VERSION, Campaign, Task
from .tasks import InjectedWorkerFailure, execute_payload, execute_task

__all__ = ["ExecutorConfig", "CampaignResult", "run_campaign"]

#: FaultEvent kinds the executor interprets (see module docstring).
KILL_CAMPAIGN = "kill_campaign"
WORKER_FAILURE = "worker_failure"

#: Each retry waits this many times longer than the one before.
_BACKOFF_FACTOR = 2.0


@dataclass
class ExecutorConfig:
    """Execution policy for one campaign run."""

    workers: int = 1
    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    #: Raise instead of recording ``status="failed"`` when a task exhausts
    #: its retry budget.
    strict: bool = False
    #: Forced injected failures per task key (key -> number of attempts
    #: that fail).  Deliberately *outside* the scenario, so chaos testing
    #: never perturbs task fingerprints or cache keys.
    forced_failures: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExperimentError("workers must be >= 1")
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: Campaign
    #: task key -> result dict, in expansion order.
    results: Dict[str, Dict[str, Any]]
    manifest: Dict[str, Any]
    status: str  # "complete" | "interrupted" | "failed"

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def _pool_entry(payload: Mapping[str, Any], attempt: int, forced_n: int):
    """Top-level (picklable) worker entry point."""
    if attempt < forced_n:
        raise InjectedWorkerFailure(
            f"injected worker failure for {payload['key']} (attempt {attempt})"
        )
    return execute_payload(payload, attempt=attempt)


def _interpret_faults(
    fault_events: Sequence[Any], config: ExecutorConfig
) -> Optional[int]:
    """Fold validation FaultEvents into executor policy.

    Returns the kill threshold (number of freshly computed tasks after
    which the campaign stops), or None.
    """
    kill_after: Optional[int] = None
    for event in fault_events:
        kind = getattr(event, "kind", None)
        if kind == KILL_CAMPAIGN:
            threshold = int(event.at_ns)
            kill_after = threshold if kill_after is None else min(kill_after, threshold)
        elif kind == WORKER_FAILURE:
            key = str(event.target)
            count = max(1, int(event.at_ns))
            config.forced_failures[key] = max(
                config.forced_failures.get(key, 0), count
            )
    return kill_after


def run_campaign(
    campaign: Campaign,
    config: Optional[ExecutorConfig] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    fault_events: Sequence[Any] = (),
    manifest_path: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run *campaign* under *config*; returns results plus a manifest.

    Args:
        cache_dir: Root of the content-addressed result cache.  ``None``
            disables caching (every task recomputed, nothing persisted).
        fault_events: :class:`repro.validation.FaultEvent` objects with
            the executor-recognized kinds (module docstring).
        manifest_path: Where to write the campaign manifest JSON
            (default: ``<cache_dir>/manifest-<campaign>.json`` when a
            cache directory is given).
        progress: Optional callable receiving one-line status strings.
    """
    config = config or ExecutorConfig()
    say = progress or (lambda _msg: None)
    kill_after = _interpret_faults(fault_events, config)

    started = time.perf_counter()
    tasks = campaign.expand()
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    results: Dict[str, Dict[str, Any]] = {}
    meta: Dict[str, Dict[str, Any]] = {}
    retries_total = 0

    # ------------------------------------------------------------------
    # Phase 1: satisfy what we can from the cache.
    # ------------------------------------------------------------------
    def cached_by(task: Task) -> bool:
        return cache is not None and not task.scenario.measures_wallclock

    missing: List[Task] = []
    for task in tasks:
        cached = cache.load(task) if cached_by(task) else None
        if cached is not None:
            results[task.key] = cached
            meta[task.key] = {
                "fingerprint": task.fingerprint(),
                "status": "cached",
                "attempts": 0,
                "wallclock_s": 0.0,
            }
        else:
            missing.append(task)
    if cache is not None and cache.hits:
        say(f"cache: {cache.hits} hit(s), {len(missing)} task(s) to run")

    # ------------------------------------------------------------------
    # Phase 2: decide what this run executes (crash simulation may cap it).
    # ------------------------------------------------------------------
    interrupted = False
    to_run = missing
    if kill_after is not None and kill_after < len(missing):
        to_run = missing[:kill_after]
        interrupted = True
        say(
            f"fault injection: killing campaign after {kill_after} of "
            f"{len(missing)} pending task(s)"
        )

    def finish(task: Task, result: Dict[str, Any], attempts: int, wall: float) -> None:
        if cached_by(task):
            cache.store(task, result)
        results[task.key] = result
        meta[task.key] = {
            "fingerprint": task.fingerprint(),
            "status": "computed",
            "attempts": attempts,
            "wallclock_s": wall,
        }

    def fail(task: Task, attempts: int, error: str) -> None:
        meta[task.key] = {
            "fingerprint": task.fingerprint(),
            "status": "failed",
            "attempts": attempts,
            "error": error,
        }
        say(f"task {task.key}: FAILED after {attempts} attempt(s): {error}")

    # ------------------------------------------------------------------
    # Phase 3: execute.
    # ------------------------------------------------------------------
    mode = "serial"
    if to_run:
        if config.workers > 1:
            try:
                retries_total += _run_pool(to_run, config, finish, fail, say)
                mode = f"pool:{config.workers}"
            except _PoolUnavailable as exc:
                say(f"process pool unavailable ({exc}); degrading to serial")
                remaining = [t for t in to_run if t.key not in meta]
                retries_total += _run_serial(remaining, config, finish, fail, say)
        else:
            retries_total += _run_serial(to_run, config, finish, fail, say)

    failed_keys = [k for k, m in meta.items() if m["status"] == "failed"]
    if interrupted:
        status = "interrupted"
    elif failed_keys:
        status = "failed"
    else:
        status = "complete"

    # ------------------------------------------------------------------
    # Phase 4: manifest + rollups.
    # ------------------------------------------------------------------
    from ..telemetry import merge_snapshots

    rollup = merge_snapshots(
        r["telemetry"] for r in results.values() if isinstance(r.get("telemetry"), dict)
    )
    counts = {
        "tasks": len(tasks),
        "cache_hits": cache.hits if cache is not None else 0,
        "computed": sum(1 for m in meta.values() if m["status"] == "computed"),
        "failed": len(failed_keys),
        "pending": len(tasks) - len(meta),
        "retries": retries_total,
        "corrupt_cache_records": cache.corrupt if cache is not None else 0,
    }
    manifest: Dict[str, Any] = {
        "schema": CACHE_SCHEMA_VERSION,
        "campaign": campaign.name,
        "campaign_fingerprint": campaign.fingerprint(),
        "seed": campaign.seed,
        "status": status,
        "mode": mode,
        "counts": counts,
        "tasks": {t.key: meta.get(t.key, {"status": "pending"}) for t in tasks},
        "telemetry": rollup,
        "wallclock_s": time.perf_counter() - started,
    }
    if manifest_path is None and cache_dir is not None:
        manifest_path = Path(cache_dir) / f"manifest-{campaign.name}.json"
    if manifest_path is not None:
        atomic_write_json(manifest_path, manifest)
        say(f"manifest written to {manifest_path}")

    if failed_keys and config.strict:
        raise ExperimentError(
            f"campaign {campaign.name!r}: {len(failed_keys)} task(s) failed "
            f"after retries: {', '.join(sorted(failed_keys))}"
        )
    # Results in deterministic expansion order regardless of completion order.
    ordered = {t.key: results[t.key] for t in tasks if t.key in results}
    return CampaignResult(
        campaign=campaign, results=ordered, manifest=manifest, status=status
    )


# ----------------------------------------------------------------------
# Serial execution (also the degradation target)
# ----------------------------------------------------------------------
def _run_serial(tasks, config: ExecutorConfig, finish, fail, say) -> int:
    retries = 0
    for task in tasks:
        forced_n = config.forced_failures.get(task.key, 0)
        attempt = 0
        while True:
            task_started = time.perf_counter()
            try:
                if attempt < forced_n:
                    raise InjectedWorkerFailure(
                        f"injected worker failure for {task.key} "
                        f"(attempt {attempt})"
                    )
                result = execute_task(task, attempt=attempt)
            except Exception as exc:  # noqa: BLE001 — any worker error retries
                if attempt >= config.max_retries:
                    fail(task, attempt + 1, f"{type(exc).__name__}: {exc}")
                    break
                delay = config.backoff_s * (_BACKOFF_FACTOR ** attempt)
                say(
                    f"task {task.key}: attempt {attempt} failed "
                    f"({type(exc).__name__}); retrying in {delay:.2f}s"
                )
                time.sleep(delay)
                attempt += 1
                retries += 1
                continue
            wall = time.perf_counter() - task_started
            if (
                config.task_timeout_s is not None
                and wall > config.task_timeout_s
            ):
                # A serial run cannot preempt itself; record the overrun.
                say(
                    f"task {task.key}: overran timeout "
                    f"({wall:.2f}s > {config.task_timeout_s:.2f}s)"
                )
            finish(task, result, attempt + 1, wall)
            break
    return retries


# ----------------------------------------------------------------------
# Pool execution
# ----------------------------------------------------------------------
class _PoolUnavailable(RuntimeError):
    """The process pool could not be created or broke mid-run."""


def _run_pool(tasks, config: ExecutorConfig, finish, fail, say) -> int:
    retries = 0
    try:
        pool = ProcessPoolExecutor(max_workers=config.workers)
    except (OSError, ValueError, PermissionError) as exc:
        raise _PoolUnavailable(str(exc)) from exc

    # future -> (task, attempt, submit_time)
    pending: Dict[Any, Tuple[Task, int, float]] = {}
    abandoned: set = set()

    def submit(task: Task, attempt: int):
        forced_n = config.forced_failures.get(task.key, 0)
        future = pool.submit(_pool_entry, task.to_payload(), attempt, forced_n)
        pending[future] = (task, attempt, time.perf_counter())

    def retry_or_fail(task: Task, attempt: int, error: str) -> None:
        nonlocal retries
        if attempt >= config.max_retries:
            fail(task, attempt + 1, error)
            return
        delay = config.backoff_s * (_BACKOFF_FACTOR ** attempt)
        say(f"task {task.key}: attempt {attempt} failed ({error}); "
            f"retrying in {delay:.2f}s")
        time.sleep(delay)
        retries += 1
        submit(task, attempt + 1)

    try:
        with pool:
            for task in tasks:
                submit(task, 0)
            while pending:
                wait_timeout = None
                if config.task_timeout_s is not None:
                    now = time.perf_counter()
                    deadlines = [
                        submitted + config.task_timeout_s
                        for (_t, _a, submitted) in pending.values()
                    ]
                    wait_timeout = max(0.0, min(deadlines) - now)
                done, _not_done = wait(
                    set(pending) | abandoned,
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    if future in abandoned:
                        abandoned.discard(future)
                        continue
                    task, attempt, submitted = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        finish(
                            task,
                            future.result(),
                            attempt + 1,
                            time.perf_counter() - submitted,
                        )
                    else:
                        if isinstance(error, BrokenProcessPool_types):
                            raise _PoolUnavailable(str(error))
                        retry_or_fail(
                            task, attempt, f"{type(error).__name__}: {error}"
                        )
                if config.task_timeout_s is None:
                    continue
                # Expire tasks whose deadline passed without completing.
                now = time.perf_counter()
                for future in list(pending):
                    task, attempt, submitted = pending[future]
                    if now - submitted < config.task_timeout_s:
                        continue
                    del pending[future]
                    if not future.cancel():
                        # Still running in a worker we cannot preempt;
                        # ignore whatever it eventually returns.
                        abandoned.add(future)
                    retry_or_fail(
                        task,
                        attempt,
                        f"timeout after {config.task_timeout_s:.2f}s",
                    )
    except _PoolUnavailable:
        raise
    except BrokenProcessPool_types as exc:
        raise _PoolUnavailable(str(exc)) from exc
    return retries


try:  # concurrent.futures raises this when a worker dies hard (SIGKILL).
    from concurrent.futures.process import BrokenProcessPool as _BPP

    BrokenProcessPool_types: tuple = (_BPP,)
except ImportError:  # pragma: no cover - ancient pythons
    BrokenProcessPool_types = ()
