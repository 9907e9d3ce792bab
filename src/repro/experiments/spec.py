"""Declarative campaign specs: scenarios, campaigns, tasks, fingerprints.

A :class:`Scenario` names one cell family of an evaluation sweep — a
topology, a workload, a stack/algorithm and its parameters, plus how many
seeded replicates to run.  A :class:`Campaign` is an ordered set of
scenarios sharing one campaign seed; :meth:`Campaign.expand` turns it into
concrete :class:`Task` objects, one per (scenario, replicate), each with a
deterministic seed derived via :func:`repro.core.derive_seed` and a
content fingerprint that keys the result cache.

Everything round-trips through JSON so specs can cross process boundaries
(the parallel executor ships task payloads to worker processes) and be
checked into manifests.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.seeds import derive_seed
from ..errors import ExperimentError

__all__ = ["CACHE_SCHEMA_VERSION", "Scenario", "Campaign", "Task"]

#: Bumped whenever task semantics change in a way that invalidates cached
#: results (it participates in every task fingerprint).  Version 2: the
#: event loop gained deterministic content-based tie-breaking for
#: same-instant packet deliveries (the invariant behind sharded execution),
#: which perturbs simulation results for the same seeds; sim-task telemetry
#: rollups also dropped the executor-dependent gauges.  Version 3: wire-loss
#: fault injection moved from one RNG shared by every port to per-port
#: streams keyed by link identity (the invariant behind sharding lossy
#: configurations), which perturbs lossy-run results for the same seeds;
#: sim tasks also gained scenario-from-spec hooks (clos topologies, link
#: latency, failure storms, loss/audit/horizon parameters) and richer
#: result fields.  Version 4: sim results gained the per-flow reorder-buffer
#: and FCT lists the Figure 14 and ablation tables are computed from.
CACHE_SCHEMA_VERSION = 4

#: Task kinds the executor knows how to run (see :mod:`.tasks`).
TASK_KINDS = (
    "probe", "routing", "sim", "selection", "crossval", "rate_error",
    "epoch_cost", "churn", "synth",
)

#: Scenario fields that choose *how* a result is computed, never *what* it
#: is — excluded from fingerprints so flipping them neither invalidates nor
#: forks cached results (the same precedent as :class:`.runner.
#: ExecutorConfig` living outside the scenario entirely).  ``shards`` can
#: sit here because sharded simulation is byte-identical to serial by
#: construction — and refuses configurations where it could not be.
EXECUTOR_POLICY_FIELDS = ("shards",)


def _freeze_params(params: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize a params mapping into a sorted, hashable pair tuple."""
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = params  # already pairs
    frozen = []
    for key, value in sorted((str(k), v) for k, v in items):
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


def _fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of *payload*."""
    text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 hex digest of the ``repro`` package source: every ``*.py``
    file under it, by relative path and content.  Any source edit changes
    every task fingerprint, so checks run over a warm result cache still
    test the code that is running."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        source = path.read_bytes()
        name = path.relative_to(root).as_posix().encode("utf-8")
        digest.update(b"%d:%s:%d:" % (len(name), name, len(source)))
        digest.update(source)
    return digest.hexdigest()


@dataclass(frozen=True)
class Scenario:
    """One sweep cell family: what to run and with how many replicates.

    ``params`` accepts any mapping and is canonicalized to a sorted tuple
    of pairs so scenarios are hashable and fingerprint-stable regardless
    of insertion order.
    """

    name: str
    kind: str = "sim"
    topology: str = "torus"
    dims: Tuple[int, ...] = (4, 4, 4)
    capacity_bps: Optional[float] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    replicates: int = 1
    #: Executor policy for ``sim`` tasks: split the simulation across this
    #: many shards (:mod:`repro.distsim`).  1 means the serial engine.
    #: Outside the fingerprint — results are byte-identical either way.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ExperimentError(
                f"scenario {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {TASK_KINDS}"
            )
        if self.replicates < 1:
            raise ExperimentError(
                f"scenario {self.name!r}: replicates must be >= 1"
            )
        if self.shards < 1:
            raise ExperimentError(
                f"scenario {self.name!r}: shards must be >= 1"
            )
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "params", _freeze_params(self.params))

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def measures_wallclock(self) -> bool:
        """Whether the result times this machine's wall clock (``epoch_cost``
        tasks, sims with ``wallclock``).  Such results are measured afresh on
        every run and never stored in the result cache."""
        return self.kind == "epoch_cost" or bool(self.param("wallclock", False))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "topology": self.topology,
            "dims": list(self.dims),
            "capacity_bps": self.capacity_bps,
            "params": {k: _jsonable(v) for k, v in self.params},
            "replicates": self.replicates,
            "shards": self.shards,
        }

    def content_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus executor-policy fields — the fingerprint
        surface.  A scenario run with 4 shards produces (provably, and
        oracle-checked) the same bytes as a serial run, so cached results
        stay valid when only the execution strategy changes."""
        data = self.to_dict()
        for policy_field in EXECUTOR_POLICY_FIELDS:
            data.pop(policy_field, None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        try:
            return cls(
                name=data["name"],
                kind=data.get("kind", "sim"),
                topology=data.get("topology", "torus"),
                dims=tuple(data.get("dims", (4, 4, 4))),
                capacity_bps=data.get("capacity_bps"),
                params=data.get("params", {}),
                replicates=int(data.get("replicates", 1)),
                shards=int(data.get("shards", 1)),
            )
        except KeyError as exc:
            raise ExperimentError(f"scenario spec missing field {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Content hash of everything that affects this scenario's *results*
        (executor-policy fields like ``shards`` are excluded)."""
        return _fingerprint(self.content_dict())


@dataclass(frozen=True)
class Task:
    """One concrete unit of work: a scenario replicate with its own seed."""

    scenario: Scenario
    replicate: int
    seed: int
    key: str  # "scenario-name/rN" — stable, human-readable task id

    def fingerprint(self) -> str:
        """The result-cache key: scenario content + replicate + seed + the
        cache schema version + the :func:`code_digest` of the running
        source, so a warm cache never answers for code it did not run."""
        return _fingerprint(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "code": code_digest(),
                "scenario": self.scenario.content_dict(),
                "replicate": self.replicate,
                "seed": self.seed,
            }
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able form shipped to worker processes."""
        return {
            "scenario": self.scenario.to_dict(),
            "replicate": self.replicate,
            "seed": self.seed,
            "key": self.key,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Task":
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            replicate=int(payload["replicate"]),
            seed=int(payload["seed"]),
            key=payload["key"],
        )


@dataclass(frozen=True)
class Campaign:
    """An ordered set of scenarios sharing one campaign seed."""

    name: str
    scenarios: Tuple[Scenario, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ExperimentError(
                f"campaign {self.name!r}: duplicate scenario names {dupes}"
            )

    def expand(self) -> List[Task]:
        """Concrete tasks, in deterministic (scenario order, replicate) order.

        Each task's seed is ``derive_seed(campaign seed, scenario
        fingerprint, replicate)`` — stable across processes and machines,
        distinct across scenarios and replicates.
        """
        tasks: List[Task] = []
        for scenario in self.scenarios:
            fp = scenario.fingerprint()
            for replicate in range(scenario.replicates):
                tasks.append(
                    Task(
                        scenario=scenario,
                        replicate=replicate,
                        seed=derive_seed(self.seed, fp, replicate),
                        key=f"{scenario.name}/r{replicate}",
                    )
                )
        return tasks

    def fingerprint(self) -> str:
        return _fingerprint(self.to_dict())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        return cls(
            name=data["name"],
            scenarios=tuple(
                Scenario.from_dict(s) for s in data.get("scenarios", ())
            ),
            seed=int(data.get("seed", 0)),
            description=data.get("description", ""),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        return cls.from_dict(json.loads(text))
