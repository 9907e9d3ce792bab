"""A second, independently scheduled execution of the same simulation.

Splits one simulation across K event loops — one per topology shard, all
stepped in the calling process — and exchanges cross-shard packets as
timestamped messages under a conservative synchronization protocol whose
lookahead is the minimum cut-link latency.  The defining property is
*byte-identity*: for any supported configuration, a K-shard run produces
exactly the serial engine's metrics, flow states and (merged) telemetry
counters for the same seeds.  That is what the package is for — a
tolerance-0 determinism oracle for the serial engine (the fuzzer's
sharded-vs-serial check, ``explain-flow --shards``, the golden runs) — and
not a way to go faster: one process steps every shard, and a
process-per-shard back end measured 0.23–0.66x of serial before it was
deleted (DESIGN.md §6d has the table).

Public surface:

* :func:`run_sharded_simulation` — the sharded counterpart of
  :func:`repro.sim.runner.run_simulation`; returns a
  :class:`DistSimResult`.
* :func:`canonical_metrics` / :func:`comparable_snapshot` — the precise
  equality surface the sharded-vs-serial differential oracle asserts.
* :func:`validate_sharded_config` — which configurations shard (and why
  the rest refuse).

Topology cuts live in :mod:`repro.topology.partition`; see DESIGN.md §6d
for the protocol, the lookahead derivation and the determinism argument.
"""

from .coordinator import (
    DistSimResult,
    run_sharded_simulation,
    validate_sharded_config,
)
from .merge import canonical_flow, canonical_metrics, comparable_snapshot
from .shard import ShardSim

__all__ = [
    "DistSimResult",
    "ShardSim",
    "canonical_flow",
    "canonical_metrics",
    "comparable_snapshot",
    "run_sharded_simulation",
    "validate_sharded_config",
]
