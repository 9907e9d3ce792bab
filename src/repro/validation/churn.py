"""The churn oracle: scratch ≡ incremental after every operation.

Extends the waterfill-vs-LP differential family to sustained churn: a
seeded sequence of single-flow arrivals / departures / demand updates is
applied to an :class:`~repro.congestion.IncrementalWaterfill`, and after
**every** operation the live (patched) allocation is compared against a
full scratch :func:`~repro.congestion.waterfill` over the same flow set.
Weighted max-min allocations are unique, so any divergence beyond the
LP oracle's 1e-6 tolerance is an incremental-patch bug, not a modelling
gap.

Forced-fallback coverage: a case may flip the failure view mid-sequence
(:class:`~repro.validation.faults.FaultInjector` fails symmetric links and
the allocator is :meth:`~repro.congestion.IncrementalWaterfill.rebuild`
onto the degraded fabric), exercising the multi-link-membership fallback
path the patch must never try to absorb incrementally.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from ..congestion import FlowSpec, IncrementalWaterfill
from ..topology.base import Topology
from .oracle import (
    DifferentialCase,
    DifferentialReport,
    _RATE_FLOOR,
    random_connected_topology,
)

#: Same tolerance as the waterfill-vs-LP oracle.
CHURN_TOLERANCE = 1e-6

#: Protocols drawn for churn flows: single-path (tight affected sets) and
#: packet-spraying (rack-wide membership) stress different patch regimes.
_CHURN_PROTOCOLS = ("ecmp", "ecmp", "rps")


def churn_ops(
    seed: int,
    n_nodes: int,
    n_ops: int,
    max_flows: int = 24,
    capacity_bps: float = 1.0,
    protocols=_CHURN_PROTOCOLS,
) -> List[dict]:
    """A deterministic churn sequence of *n_ops* operation dicts.

    Ops are ``{"op": "add", "spec": FlowSpec}``, ``{"op": "remove",
    "flow_id": id}`` or ``{"op": "demand", "flow_id": id, "demand_bps":
    bps}``; arrival-biased until ``max_flows`` live flows, then balanced.
    """
    rng = random.Random(seed ^ 0xC4B2)
    ops: List[dict] = []
    live: List[int] = []
    next_id = 0
    for _ in range(n_ops):
        roll = rng.random()
        at_cap = len(live) >= max_flows
        if not live or (roll < 0.55 and not at_cap):
            src = rng.randrange(n_nodes)
            dst = rng.randrange(n_nodes)
            while dst == src:
                dst = rng.randrange(n_nodes)
            demand = (
                math.inf
                if rng.random() < 0.5
                else rng.uniform(0.05, 2.0) * capacity_bps
            )
            spec = FlowSpec(
                flow_id=next_id,
                src=src,
                dst=dst,
                protocol=rng.choice(protocols),
                weight=rng.choice((0.5, 1.0, 1.0, 2.0)),
                demand_bps=demand,
            )
            ops.append({"op": "add", "spec": spec})
            live.append(next_id)
            next_id += 1
        elif roll < 0.85 or at_cap:
            flow_id = live.pop(rng.randrange(len(live)))
            ops.append({"op": "remove", "flow_id": flow_id})
        else:
            ops.append(
                {
                    "op": "demand",
                    "flow_id": rng.choice(live),
                    "demand_bps": rng.uniform(0.05, 2.0) * capacity_bps,
                }
            )
    return ops


def apply_churn_op(incremental: IncrementalWaterfill, op: dict) -> None:
    """Apply one :func:`churn_ops` entry to *incremental*."""
    kind = op["op"]
    if kind == "add":
        incremental.add_flow(op["spec"])
    elif kind == "remove":
        incremental.remove_flow(op["flow_id"])
    elif kind == "demand":
        incremental.update_demand(op["flow_id"], op["demand_bps"])
    else:
        raise ValueError(f"unknown churn op {kind!r}")


def compare_against_scratch(incremental: IncrementalWaterfill) -> Dict[int, float]:
    """Per-flow relative error of the live allocation vs a scratch fill."""
    reference = incremental.scratch_allocation()
    errors: Dict[int, float] = {}
    for flow_id, ref_rate in reference.rates_bps.items():
        live_rate = incremental.rate(flow_id)
        errors[flow_id] = abs(live_rate - ref_rate) / max(ref_rate, _RATE_FLOOR)
    return errors


def churn_case(
    seed: int,
    n_ops: int = 200,
    n_nodes: int = 8,
    max_flows: int = 24,
    fallback_at: Optional[int] = None,
    fail_links: int = 1,
    topology: Optional[Topology] = None,
    check_every: int = 1,
) -> DifferentialCase:
    """One churn sequence, scratch-checked after every ``check_every`` ops.

    With *fallback_at* set, that op index first flips the failure view:
    ``FaultInjector(seed).fail_links`` degrades the fabric symmetrically
    and the allocator is rebuilt onto it — a forced full recompute in the
    middle of the sequence.
    """
    from .faults import FaultInjector

    if topology is None:
        topology = random_connected_topology(seed, n_nodes=n_nodes)
    incremental = IncrementalWaterfill(topology)
    ops = churn_ops(
        seed, topology.n_nodes, n_ops, max_flows=max_flows,
        capacity_bps=topology.capacity_bps,
    )
    worst = 0.0
    worst_per_flow: Dict[int, float] = {}
    peak_flows = 0
    for index, op in enumerate(ops):
        if fallback_at is not None and index == fallback_at:
            degraded, _failed = FaultInjector(seed=seed).fail_links(
                topology, fail_links, require_connected=True, symmetric=True
            )
            incremental.rebuild(topology=degraded)
        apply_churn_op(incremental, op)
        peak_flows = max(peak_flows, incremental.n_flows)
        if index % check_every == 0 or index == len(ops) - 1:
            errors = compare_against_scratch(incremental)
            step_worst = max(errors.values(), default=0.0)
            if step_worst >= worst:
                worst = step_worst
                worst_per_flow = errors
    flip = f", failure flip at op {fallback_at}" if fallback_at is not None else ""
    return DifferentialCase(
        seed=seed,
        description=(
            f"incremental-vs-scratch churn: {n_ops} ops on "
            f"{topology.name} (peak {peak_flows} flows{flip})"
        ),
        n_flows=peak_flows,
        max_rel_error=worst,
        per_flow_rel_error=worst_per_flow,
        patch_share=incremental.stats()["incremental_ratio"],
    )


def churn_report(
    n_cases: int = 8,
    seed: int = 0,
    n_ops: int = 200,
    tolerance: float = CHURN_TOLERANCE,
    n_nodes: int = 8,
    max_flows: int = 24,
    fallback_every: int = 4,
) -> DifferentialReport:
    """Randomized sweep of :func:`churn_case`.

    Every ``fallback_every``-th case injects a mid-sequence failure-view
    flip so forced-fallback steps stay inside the oracle's coverage.
    """
    report = DifferentialReport(name="incremental-vs-scratch-churn", tolerance=tolerance)
    for i in range(n_cases):
        case_seed = seed * 1000 + i
        fallback_at = n_ops // 2 if (fallback_every and i % fallback_every == fallback_every - 1) else None
        report.cases.append(
            churn_case(
                case_seed,
                n_ops=n_ops,
                n_nodes=n_nodes,
                max_flows=max_flows,
                fallback_at=fallback_at,
            )
        )
    return report


__all__ = [
    "CHURN_TOLERANCE",
    "apply_churn_op",
    "churn_case",
    "churn_ops",
    "churn_report",
    "compare_against_scratch",
]
