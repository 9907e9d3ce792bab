"""The coverage-guided fuzzing loop.

One root seed drives everything: batch composition, scenario generation,
mutation-parent picks and every scenario's own behavior (via pinned seed
params), so ``run_fuzz(FuzzConfig(seed=42, budget=200))`` is fully
deterministic — two runs produce identical coverage maps, identical
failures and byte-identical corpora.

The loop:

1. build a batch — fresh scenarios from :func:`.generator.generate_scenario`
   plus mutants of the interesting-seed pool from
   :func:`.mutate.mutate_scenario`;
2. execute it as a :class:`repro.experiments.Campaign` through
   :func:`repro.experiments.run_campaign` (each scenario audited, bounded
   by a horizon);
3. judge every result with the structured oracles
   (:mod:`repro.validation.verdicts`) — crash, invariant audit, sanity,
   and (for scenarios that just added coverage and can shard) the
   sharded-vs-serial byte-identity differential;
4. extract each result's behavioral signature
   (:func:`repro.telemetry.sim_signature`); scenarios with *new*
   signatures join the mutation pool;
5. shrink failures to minimal reproducers (:mod:`.shrink`) and persist
   them content-addressed in the corpus (:mod:`.corpus`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..core.seeds import derive_seed
from ..experiments import Campaign, ExecutorConfig, Scenario, Task, run_campaign
from ..experiments.tasks import execute_task
from ..telemetry import sim_signature
from ..validation.verdicts import (
    OracleVerdict,
    consistency_verdict,
    crash_verdict,
    sim_result_verdicts,
)
from .corpus import Corpus, CorpusEntry
from .coverage import CoverageMap
from .generator import generate_scenario, sharding_eligible
from .mutate import mutate_scenario
from .shrink import shrink_scenario

__all__ = ["FuzzConfig", "FuzzReport", "replay_entry", "run_fuzz"]

#: Signature used for scenarios that crashed (no result to fingerprint).
_CRASH_SIGNATURE = (("crash", 1),)
#: Interesting-seed pool cap (oldest seeds retire first).
_POOL_LIMIT = 64
#: Chance a batch slot is freshly generated once the pool is warm.
_FRESH_FRACTION = 0.25
#: Shards of the sharded-vs-serial differential's re-execution.
_DIFFERENTIAL_SHARDS = 2
#: Predicate-evaluation budget per shrink.
_SHRINK_EVALS = 80


@dataclass
class FuzzConfig:
    """Policy for one fuzzing run."""

    seed: int = 0
    #: Scenarios executed by the search loop (shrinking and differential
    #: re-executions ride on top).
    budget: int = 100
    batch_size: int = 10
    #: Run the sharded-vs-serial differential on new-coverage scenarios.
    differential: bool = True
    #: Where to persist shrunk failures (None: in-memory only).
    corpus_dir: Optional[Union[str, Path]] = None
    #: Campaign executor workers (results are executor-independent).
    workers: int = 1


@dataclass
class FuzzReport:
    """Everything one fuzzing run observed."""

    config: FuzzConfig
    executed: int = 0
    coverage: CoverageMap = field(default_factory=CoverageMap)
    #: Scenarios that contributed a new signature.
    interesting: int = 0
    #: Shrunk failing entries, in discovery order (deduplicated).
    failures: List[CorpusEntry] = field(default_factory=list)
    #: Corpus files written (empty when corpus_dir is None).
    corpus_paths: List[str] = field(default_factory=list)

    @property
    def found_failures(self) -> bool:
        return bool(self.failures)

    def summary(self) -> Dict[str, Any]:
        """Deterministic JSON-able rollup (no timestamps)."""
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "executed": self.executed,
            "coverage_signatures": len(self.coverage),
            "interesting": self.interesting,
            "failures": [
                {
                    "id": entry.entry_id,
                    "oracles": sorted(
                        {v.oracle for v in entry.verdicts if not v.ok}
                    ),
                    "shrink_steps": list(entry.shrink_steps),
                }
                for entry in self.failures
            ],
            "corpus_paths": list(self.corpus_paths),
        }


def _task_for(scenario: Scenario, root_seed: int) -> Task:
    """The task a campaign with seed *root_seed* would expand this
    scenario's single replicate into (scenario behavior itself rides on
    the pinned ``sim_seed``/``trace_seed`` params)."""
    return Task(
        scenario=scenario,
        replicate=0,
        seed=derive_seed(root_seed, scenario.fingerprint(), 0),
        key=f"{scenario.name}/r0",
    )


def _evaluate(
    scenario: Scenario,
    root_seed: int,
    differential: bool,
    flight: bool = False,
) -> Tuple[List[OracleVerdict], Tuple, Optional[Dict[str, Any]]]:
    """Execute *scenario* serially and judge it with every oracle.

    Returns (verdicts, signature, result).  Used for shrink-candidate
    checks and for re-judging shrunk reproducers; the main loop's batch
    path goes through :func:`repro.experiments.run_campaign` instead.

    With ``flight=True`` the run records a crash flight recorder
    (:mod:`repro.obs.flight`) and its dump rides on the first failing
    verdict — the corpus ships the reproducer's last moments alongside
    the spec.
    """
    task = _task_for(scenario, root_seed)
    flight_sink: Optional[Dict[str, Any]] = {} if flight else None
    try:
        result = execute_task(task, flight_sink=flight_sink)
    except Exception as exc:  # any scenario-induced crash is a finding
        return (
            [
                crash_verdict(
                    f"{type(exc).__name__}: {exc}",
                    flight=getattr(exc, "repro_flight", None),
                )
            ],
            _CRASH_SIGNATURE,
            None,
        )
    verdicts = sim_result_verdicts(result)
    if differential and sharding_eligible(scenario):
        verdicts.append(_differential(scenario, task, result))
    if flight_sink is not None and "dump" in flight_sink:
        for i, verdict in enumerate(verdicts):
            if not verdict.ok:
                verdicts[i] = replace(verdict, flight=flight_sink["dump"])
                break
    return verdicts, sim_signature(result), result


def _differential(
    scenario: Scenario, task: Task, serial_result: Dict[str, Any]
) -> OracleVerdict:
    """Re-execute sharded (``shards`` is executor policy, same
    fingerprint and seed) and demand byte-identical results."""
    sharded_task = replace(task, scenario=replace(scenario, shards=_DIFFERENTIAL_SHARDS))
    try:
        sharded_result = execute_task(sharded_task)
    except Exception as exc:
        return OracleVerdict(
            oracle="sharded_vs_serial",
            ok=False,
            details=(f"sharded execution crashed: {type(exc).__name__}: {exc}",),
        )
    return consistency_verdict(serial_result, sharded_result)


def _failing_set(verdicts: List[OracleVerdict]) -> Set[str]:
    return {v.oracle for v in verdicts if not v.ok}


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run the coverage-guided search until the budget is spent."""
    say = progress or (lambda _msg: None)
    report = FuzzReport(config=config)
    corpus = Corpus(config.corpus_dir) if config.corpus_dir is not None else None
    pool: List[Scenario] = []
    seen_entries: Set[str] = set()
    index = 0
    batch_no = 0

    while report.executed < config.budget:
        # ------------------------------------------------------------------
        # Compose the batch: mutants of the pool, plus fresh blood.
        # ------------------------------------------------------------------
        batch: List[Scenario] = []
        for _slot in range(min(config.batch_size, config.budget - report.executed)):
            slot_seed = derive_seed(config.seed, "fuzz", index)
            name = f"fuzz-{index:05d}"
            picker = random.Random(derive_seed(config.seed, "pick", index))
            if not pool or picker.random() < _FRESH_FRACTION:
                batch.append(generate_scenario(slot_seed, name))
            else:
                parent = pool[picker.randrange(len(pool))]
                batch.append(mutate_scenario(parent, slot_seed, name))
            index += 1

        # ------------------------------------------------------------------
        # Execute through the campaign runner (no cache: every spec is new).
        # ------------------------------------------------------------------
        campaign = Campaign(
            name=f"fuzz-batch-{batch_no}", scenarios=tuple(batch), seed=config.seed
        )
        batch_no += 1
        campaign_result = run_campaign(
            campaign,
            ExecutorConfig(workers=config.workers, max_retries=0),
            cache_dir=None,
        )

        # ------------------------------------------------------------------
        # Judge, cover, shrink.
        # ------------------------------------------------------------------
        for scenario in batch:
            key = f"{scenario.name}/r0"
            result = campaign_result.results.get(key)
            if result is None:
                error = campaign_result.manifest["tasks"].get(key, {}).get(
                    "error", "task failed with no recorded error"
                )
                verdicts: List[OracleVerdict] = [crash_verdict(str(error))]
                signature: Tuple = _CRASH_SIGNATURE
            else:
                verdicts = sim_result_verdicts(result)
                signature = sim_signature(result)
            report.executed += 1
            is_new = report.coverage.observe(signature)
            if is_new:
                report.interesting += 1
                # New coverage earns a pool slot and, when eligible, the
                # (expensive) executor differential.
                if (
                    result is not None
                    and config.differential
                    and sharding_eligible(scenario)
                ):
                    verdicts.append(
                        _differential(
                            scenario, _task_for(scenario, config.seed), result
                        )
                    )
                pool.append(scenario)
                if len(pool) > _POOL_LIMIT:
                    pool.pop(0)

            failing = _failing_set(verdicts)
            if failing:
                say(
                    f"{scenario.name}: FAILING oracles {sorted(failing)}; shrinking"
                )
                entry = _shrink_and_record(
                    scenario, failing, config, report, corpus, seen_entries
                )
                if entry is not None:
                    say(
                        f"{scenario.name}: shrunk to {entry.entry_id} in "
                        f"{len(entry.shrink_steps)} step(s)"
                    )
        say(
            f"batch {batch_no}: executed {report.executed}/{config.budget}, "
            f"coverage {len(report.coverage)}, corpus {len(report.failures)}"
        )
    return report


def _shrink_and_record(
    scenario: Scenario,
    failing: Set[str],
    config: FuzzConfig,
    report: FuzzReport,
    corpus: Optional[Corpus],
    seen_entries: Set[str],
) -> Optional[CorpusEntry]:
    """Minimize one failing scenario and file it (deduplicated)."""
    ran_differential = "sharded_vs_serial" in failing

    def still_fails(candidate: Scenario) -> bool:
        verdicts, _sig, _res = _evaluate(candidate, config.seed, ran_differential)
        return _failing_set(verdicts) == failing

    shrunk = shrink_scenario(scenario, still_fails, max_evals=_SHRINK_EVALS)
    # Re-judge the reproducer so the corpus records its final verdicts and
    # signature (not the pre-shrink ones), with the flight recorder armed —
    # the filed entry carries the failing run's last-moments dump.
    verdicts, signature, _result = _evaluate(
        shrunk.scenario, config.seed, ran_differential, flight=True
    )
    entry = CorpusEntry(
        scenario=shrunk.scenario,
        verdicts=verdicts,
        signature=signature,
        found_from=scenario.fingerprint(),
        shrink_steps=tuple(shrunk.steps),
        root_seed=config.seed,
    )
    if entry.entry_id in seen_entries:
        return None
    seen_entries.add(entry.entry_id)
    report.failures.append(entry)
    if corpus is not None:
        path = corpus.add(entry)
        report.corpus_paths.append(str(path))
    return entry


def replay_entry(entry: CorpusEntry, root_seed: Optional[int] = None) -> List[OracleVerdict]:
    """Re-run a corpus entry and return today's verdicts.

    The differential oracle is re-run iff it was failing when the entry
    was filed.  A healthy tree returns all-ok verdicts for every
    committed entry — that is the ``pytest -m fuzz_corpus`` contract.
    """
    seed = entry.root_seed if root_seed is None else root_seed
    ran_differential = any(
        v.oracle == "sharded_vs_serial" and not v.ok for v in entry.verdicts
    )
    verdicts, _signature, _result = _evaluate(entry.scenario, seed, ran_differential)
    return verdicts
