"""Exact max-min reference allocator (Max-min Programming, [40]).

R2C2 deliberately trades utilization for tractability by pinning each flow's
split across paths to what its routing protocol dictates (§3.3.1, Figure 4).
This module implements the *unrestricted* optimum — max-min fairness where
each flow may split arbitrarily across an explicit path set — using the
classic iterative linear-programming algorithm:

1. maximize the common rate ``t`` of all unfrozen flows;
2. freeze every flow whose rate cannot exceed ``t`` (verified with one LP
   per candidate);
3. repeat on the remaining flows.

This is exponential in spirit (one variable per path) and is intended for
small topologies: unit tests use it to reproduce the paper's Figure 4
example, where R2C2 allocates {2/3, 2/3} while the optimum is {1, 1}.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CongestionControlError
from ..topology.base import Topology
from ..topology.paths import path_links
from ..types import FlowId, NodeId

_TOL = 1e-7


class PathFlow:
    """A flow with an explicit, finite set of usable paths."""

    def __init__(self, flow_id: FlowId, paths: Sequence[Sequence[NodeId]]) -> None:
        if not paths:
            raise CongestionControlError(f"flow {flow_id} needs at least one path")
        self.flow_id = flow_id
        self.paths: List[List[NodeId]] = [list(p) for p in paths]


def maxmin_rates(
    topology: Topology,
    flows: Sequence[PathFlow],
    capacities: Optional[np.ndarray] = None,
) -> Dict[FlowId, float]:
    """Exact max-min fair rates with free splitting over the given paths.

    Returns rates normalized to the same units as the capacities (defaults
    to the topology's link capacities in bits/s).
    """
    # Imported here, not at module level: only this LP oracle needs scipy,
    # and every `repro` command imports this package.
    from scipy.optimize import linprog

    if not flows:
        return {}
    if capacities is None:
        capacities = np.fromiter(
            (link.capacity_bps for link in topology.links),
            dtype=np.float64,
            count=topology.n_links,
        )
    else:
        capacities = np.asarray(capacities, dtype=np.float64)

    # Variable layout: one rate variable per (flow, path), then t.
    var_of: Dict[Tuple[int, int], int] = {}
    for fi, flow in enumerate(flows):
        for pi in range(len(flow.paths)):
            var_of[(fi, pi)] = len(var_of)
    n_path_vars = len(var_of)

    # Precompute link usage rows.
    link_rows: Dict[int, List[int]] = {}
    for fi, flow in enumerate(flows):
        for pi, path in enumerate(flow.paths):
            for link in path_links(topology, path):
                link_rows.setdefault(link, []).append(var_of[(fi, pi)])

    frozen: Dict[int, float] = {}  # flow index -> rate

    def solve(objective_flow: Optional[int], floor: float) -> Tuple[float, np.ndarray]:
        """One LP.

        With ``objective_flow is None`` maximize the shared rate t of all
        unfrozen flows; otherwise maximize that flow's rate subject to every
        other unfrozen flow keeping at least *floor*.
        """
        n_vars = n_path_vars + (1 if objective_flow is None else 0)
        c = np.zeros(n_vars)
        a_ub: List[np.ndarray] = []
        b_ub: List[float] = []
        a_eq: List[np.ndarray] = []
        b_eq: List[float] = []

        if objective_flow is None:
            c[-1] = -1.0  # maximize t
        else:
            for pi in range(len(flows[objective_flow].paths)):
                c[var_of[(objective_flow, pi)]] = -1.0

        for link, cols in link_rows.items():
            row = np.zeros(n_vars)
            for col in cols:
                row[col] += 1.0
            a_ub.append(row)
            b_ub.append(float(capacities[link]))

        for fi, flow in enumerate(flows):
            row = np.zeros(n_vars)
            for pi in range(len(flow.paths)):
                row[var_of[(fi, pi)]] = 1.0
            if fi in frozen:
                a_eq.append(row)
                b_eq.append(frozen[fi])
            elif objective_flow is None:
                rate_minus_t = row.copy()
                rate_minus_t[-1] = -1.0
                a_ub.append(-rate_minus_t)  # t - rate <= 0
                b_ub.append(0.0)
            elif fi != objective_flow:
                a_ub.append(-row)  # rate >= floor
                b_ub.append(-floor)

        result = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(0, None)] * n_vars,
            method="highs",
        )
        if not result.success:
            raise CongestionControlError(f"max-min LP failed: {result.message}")
        return -result.fun, result.x

    while len(frozen) < len(flows):
        t_star, _ = solve(None, 0.0)
        # Shave a relative epsilon off t*: the solver can return a value a
        # few ulps above the exactly-feasible optimum (e.g. capacity/3 at
        # 1e10 scale), and feeding it back verbatim as a floor or equality
        # makes the follow-up LPs infeasible at HiGHS's tolerance.
        t_star = max(0.0, t_star * (1.0 - 1e-9))
        # A flow is frozen at t* iff its rate cannot be pushed above t*
        # while all other unfrozen flows keep at least t*.
        newly = []
        for fi in range(len(flows)):
            if fi in frozen:
                continue
            best, _ = solve(fi, t_star)
            if best <= t_star + _TOL * max(1.0, t_star):
                newly.append(fi)
        if not newly:
            raise CongestionControlError("max-min programming made no progress")
        for fi in newly:
            frozen[fi] = t_star

    return {flows[fi].flow_id: rate for fi, rate in frozen.items()}
