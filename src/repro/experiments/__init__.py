"""Experiment campaigns: parallel, fault-tolerant paper-scale sweeps.

Every figure in the paper's evaluation (§5) is a sweep — over routing
protocols, traffic patterns, headroom values, stacks and scales.  This
subsystem turns those sweeps into first-class objects:

* :class:`Scenario` / :class:`Campaign` (:mod:`.spec`) — declarative,
  JSON-serializable sweep specs with content fingerprints;
* :data:`FIGURES` (:mod:`.figures`) — every §5 figure, the ablations and
  the prose claims as campaigns, with aggregators that are the only
  producer of the ``benchmarks/results/*.txt`` tables;
* :func:`run_campaign` (:mod:`.runner`) — a parallel executor on
  :class:`~concurrent.futures.ProcessPoolExecutor` with deterministic
  per-task seeds (:func:`repro.core.derive_seed`), per-task timeouts,
  bounded retry-with-backoff, and graceful degradation to serial;
* :class:`ResultCache` (:mod:`.cache`) — a content-addressed, atomically
  written result store giving checkpoint/resume: a killed campaign re-runs
  only its missing tasks;
* :class:`Scale` / :data:`SCALES` (:mod:`.scales`) — the ``REPRO_SCALE``
  parameter tables shared with the benchmark harness.

Drive campaigns from the CLI with ``repro sweep`` / ``repro figures``
(``repro figures --check`` diffs every table against the committed one); see
EXPERIMENTS.md ("Running sweeps") and DESIGN.md §6c.
"""

from .cache import ResultCache
from .figures import FIGURES, FigureDef, campaign_for, fig02_table, fig18_rows
from .runner import CampaignResult, ExecutorConfig, run_campaign
from .scales import SCALE_ENV_VAR, SCALES, Scale, current_scale
from .spec import CACHE_SCHEMA_VERSION, Campaign, Scenario, Task
from .tasks import InjectedWorkerFailure, execute_task

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Campaign",
    "CampaignResult",
    "ExecutorConfig",
    "FIGURES",
    "FigureDef",
    "InjectedWorkerFailure",
    "ResultCache",
    "SCALES",
    "SCALE_ENV_VAR",
    "Scale",
    "Scenario",
    "Task",
    "campaign_for",
    "current_scale",
    "execute_task",
    "fig02_table",
    "fig18_rows",
    "run_campaign",
]
