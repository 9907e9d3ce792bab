"""In-process churn replay against the daemon's state machine.

The fuzzer's ``kind="churn"`` scenarios and the CI smoke replay a seeded
arrival/departure sequence against a :class:`~repro.service.state.ServiceState`
— the exact object the asyncio daemon serves — and cross-check the live
incremental allocation against a scratch water-fill as they go.  Results
are deterministic JSON (no wall-clock anywhere), so churn tasks cache and
replay byte-identically like every other ``repro.experiments`` kind.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..topology.base import Topology
from ..validation.churn import CHURN_TOLERANCE, churn_ops, compare_against_scratch
from .state import ServiceState


def allocation_digest(state: ServiceState) -> str:
    """Stable hex digest of the live per-flow rates (exact floats)."""
    rates = {
        str(fid): state.incremental.rate(fid)
        for fid in sorted(spec.flow_id for spec in state.incremental.flows())
    }
    blob = json.dumps(rates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_churn(
    topology: Topology,
    seed: int,
    n_ops: int,
    max_flows: int = 24,
    check_every: int = 1,
    fallback_at: Optional[int] = None,
    fail_links: int = 1,
    fail_seed: Optional[int] = None,
    headroom: float = 0.0,
) -> dict:
    """Replay a seeded churn sequence through a :class:`ServiceState`.

    Announces/finishes/demand-updates flow through the same entry points
    the daemon dispatches to; every ``check_every``-th operation compares
    the incremental allocation against a scratch fill.  With *fallback_at*
    set, that op index first fails ``fail_links`` symmetric links
    (:class:`~repro.validation.faults.FaultInjector`) and rebuilds the
    allocator on the degraded fabric — a forced full recompute.

    Returns a deterministic JSON-able result dict whose ``churn`` section
    feeds :func:`repro.validation.verdicts.churn_verdict`.
    """
    from ..validation.faults import FaultInjector

    state = ServiceState(topology, headroom=headroom)
    ops = churn_ops(
        seed,
        topology.n_nodes,
        n_ops,
        max_flows=max_flows,
        capacity_bps=topology.capacity_bps,
    )
    specs = {}
    max_err = 0.0
    peak_flows = 0
    checks = 0
    for index, op in enumerate(ops):
        if fallback_at is not None and index == fallback_at:
            injector = FaultInjector(seed=fail_seed if fail_seed is not None else seed)
            degraded, _failed = injector.fail_links(
                state.incremental.topology,
                fail_links,
                require_connected=True,
                symmetric=True,
            )
            state.incremental.rebuild(topology=degraded)
        kind = op["op"]
        if kind == "add":
            specs[op["spec"].flow_id] = op["spec"]
            state.announce(op["spec"])
        elif kind == "remove":
            specs.pop(op["flow_id"], None)
            state.finish(op["flow_id"])
        else:  # demand update rides the re-announce path, like the daemon
            spec = specs[op["flow_id"]].with_demand(op["demand_bps"])
            specs[op["flow_id"]] = spec
            state.announce(spec)
        peak_flows = max(peak_flows, state.incremental.n_flows)
        if index % check_every == 0 or index == len(ops) - 1:
            checks += 1
            errors = compare_against_scratch(state.incremental)
            step_worst = max(errors.values(), default=0.0)
            max_err = max(max_err, step_worst)
    stats = state.incremental.stats()
    return {
        "kind": "churn",
        "completion_rate": 1.0,
        "summary": {
            "flows": peak_flows,
            "completed": stats["n_flows"],
            "epochs_recomputed": stats["fallback_recomputes"],
        },
        "churn": {
            "ops": n_ops,
            "checks": checks,
            "max_rel_error": max_err,
            "tolerance": CHURN_TOLERANCE,
            "peak_flows": peak_flows,
            "final_flows": stats["n_flows"],
            "incremental_ops": stats["incremental_ops"],
            "fallback_recomputes": stats["fallback_recomputes"],
            "fallback_reasons": stats["fallback_reasons"],
            "fallback_at": fallback_at,
            "allocation_digest": allocation_digest(state),
        },
    }


__all__ = ["allocation_digest", "run_churn"]
