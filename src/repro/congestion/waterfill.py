"""Weighted max-min water-filling over routing-protocol-dictated splits.

This is R2C2's rate-computation algorithm (§3.3.1): every flow's relative
rate across its paths is fixed by its routing protocol, so allocation reduces
to a *flow-level* weighted water-fill:

1. all unfrozen flows grow their rate in proportion to their allocation
   weight;
2. when a link saturates, every flow crossing it freezes at its current
   rate;
3. repeat until all flows are frozen.

Extensions from §3.3.2 are folded in: bandwidth *headroom* is subtracted
from every link capacity before allocation, host-limited flows freeze early
at their *demand*, and *priorities* are handled by running the fill once per
priority level on the capacity left over by more important levels.

The implementation is matrix-form: each priority level's flows are the rows
of a CSR weight matrix over links (assembled once and cached inside the
:class:`~repro.congestion.linkweights.WeightProvider`, keyed by the flow
set's routing signature).  What only a membership change can alter — row
order, matrix and weights — is a :class:`FillLevel`; a
:class:`~repro.congestion.controller.RateController` keeps its last one
while the table's membership generation stands, so a demand-only epoch
gathers the new demands and refills it: no snapshot sort, no row keys, no
matrix lookup, and the per-link sums of its weighted rows come from the
provider's last-filled slot.  That fill runs no Python-level per-flow loop:
specs and demands are gathered by ``map`` over C callables, results are
committed by ``dict(zip(...))``, the rest is numpy.  A fill without a level
(a scratch fill, a membership change) adds a list comprehension per row
attribute it derives, checks ids by set size and groups by priority only
when the flows span several.

The fill itself (:func:`fill_matrix`) does not step a global water level
flow by flow.  It tracks, per link, the capacity frozen flows
have not claimed and the summed contributions of the unfrozen ones; their
quotient is the level at which the link saturates, and it moves only when a
flow *on that link* freezes.  One pass then either freezes every flow whose
demand binds before the first link saturates — all of them at once, because
freezing a flow can only push saturation levels up — or freezes the flows
on the link(s) saturating first.  The work is therefore one pass per
*binding constraint*: a table of host-limited flows (§3.3.2) with a few
dozen capacity-bound ones costs a few dozen passes, not one per flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import CongestionControlError
from ..topology.base import Topology
from ..types import FlowId, LinkId
from .flowstate import FlowSpec
from .linkweights import LevelMatrix, Weighted, WeightProvider

#: Relative tolerance for deciding that a link is saturated.
_REL_TOL = 1e-9

_demand_of = attrgetter("demand_bps")


@dataclass
class RateAllocation:
    """Result of one water-filling run.

    Attributes:
        rates_bps: Allocated rate per flow id.
        bottleneck_link: The link that froze each flow, or ``None`` when the
            flow froze at its demand (host-limited) or uses no links.
        link_load_bps: Aggregate allocated load per link id.
        link_capacity_bps: The (headroom-adjusted) capacity the fill used.
        iterations: Number of fill passes executed (all priority levels);
            see :func:`fill_matrix`.
    """

    rates_bps: Dict[FlowId, float]
    bottleneck_link: Dict[FlowId, Optional[LinkId]]
    link_load_bps: np.ndarray
    link_capacity_bps: np.ndarray
    iterations: int = 0

    def rate(self, flow_id: FlowId) -> float:
        """Rate of one flow in bits/s."""
        return self.rates_bps[flow_id]

    def aggregate_throughput_bps(self) -> float:
        """Sum of all flow rates — the utility metric of §3.4's examples."""
        return float(sum(self.rates_bps.values()))

    def max_link_utilization(self) -> float:
        """Highest link load divided by adjusted capacity."""
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                self.link_capacity_bps > 0,
                self.link_load_bps / self.link_capacity_bps,
                0.0,
            )
        return float(util.max()) if util.size else 0.0


def effective_capacities(
    topology: Topology, headroom: float, capacities: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-link capacities with the congestion-control headroom removed.

    The headroom is applied at the control plane only (§3.3.2): the data
    plane still runs links at full rate; the allocator simply never hands
    out the last ``headroom`` fraction.

    A read-only float64 *capacities* vector with no headroom to take is
    returned as it is: nobody can write through it, and the controllers'
    shared effective-capacity vector would otherwise be copied into every
    allocation they memoise.
    """
    if not (0.0 <= headroom < 1.0):
        raise CongestionControlError(f"headroom must be in [0, 1), got {headroom}")
    if (
        headroom == 0.0
        and isinstance(capacities, np.ndarray)
        and not capacities.flags.writeable
        and capacities.dtype == np.float64
        and capacities.shape == (topology.n_links,)
    ):
        return capacities
    if capacities is None:
        capacities = np.fromiter(
            (link.capacity_bps for link in topology.links),
            dtype=np.float64,
            count=topology.n_links,
        )
    else:
        capacities = np.asarray(capacities, dtype=np.float64).copy()
        if capacities.shape != (topology.n_links,):
            raise CongestionControlError(
                f"capacities must have one entry per link ({topology.n_links}), "
                f"got shape {capacities.shape}"
            )
    return capacities * (1.0 - headroom)


@dataclass(frozen=True)
class FillLevel:
    """One priority level's fill input that only a membership change alters.

    ``flow_ids`` are the level's rows in fill order, ``matrix`` their
    (shared, cached) weight matrix and ``phi`` their allocation weights.  A
    fill of a level reads only the demands afresh, so a controller whose
    table's :attr:`~repro.congestion.flowstate.FlowTable.membership_generation`
    has not moved hands :func:`waterfill` the level it built last time.
    Everything here is O(rows); the per-link sums of the weighted rows
    live on the shared provider
    (:meth:`~repro.congestion.linkweights.WeightProvider.weighted`).
    """

    flow_ids: List[FlowId]
    matrix: LevelMatrix
    phi: np.ndarray

    @classmethod
    def build(cls, flows: Sequence[FlowSpec], provider: WeightProvider) -> "FillLevel":
        """The level of *flows* (one priority, unique ids), rows in their order."""
        return cls(
            [spec.flow_id for spec in flows],
            provider.level_matrix(flows),
            np.array([spec.weight for spec in flows], dtype=np.float64),
        )


def waterfill(
    topology: Topology,
    flows: Sequence[FlowSpec],
    provider: WeightProvider,
    headroom: float = 0.0,
    capacities: Optional[np.ndarray] = None,
    level: Optional[FillLevel] = None,
) -> RateAllocation:
    """Compute weighted max-min rates for *flows* (§3.3).

    Args:
        topology: The rack fabric.
        flows: Active flows; each is allocated exactly one rate that applies
            across all of its paths.
        provider: Link-weight vectors per flow.
        headroom: Fraction of every link reserved for not-yet-announced
            flows (5 % in the paper's experiments).
        capacities: Optional per-link capacity override (bits/s), e.g. for
            modelling degraded links, or a precomputed effective-capacity
            vector (pass ``headroom=0.0`` to use it as-is).
        level: The :class:`FillLevel` of *flows*, built for an earlier fill
            of the same rows: *flows* are then its specs in its row order,
            and only their demands are read.  Without one, the flows are
            grouped by priority and each group's level is built here.

    Returns:
        A :class:`RateAllocation`.
    """
    cap = effective_capacities(topology, headroom, capacities)
    load = np.zeros(topology.n_links, dtype=np.float64)
    iterations = 0
    if level is not None:
        groups = [(level, flows)]
        rates: Dict[FlowId, float] = {}
    else:
        ids = [spec.flow_id for spec in flows]
        if len(set(ids)) != len(ids):
            seen = set()
            for fid in ids:
                if fid in seen:
                    raise CongestionControlError(f"duplicate flow id {fid}")
                seen.add(fid)
        if len({spec.priority for spec in flows}) > 1:
            by_priority: Dict[int, List[FlowSpec]] = {}
            for spec in flows:
                by_priority.setdefault(spec.priority, []).append(spec)
            groups = [
                (FillLevel.build(by_priority[p], provider), by_priority[p])
                for p in sorted(by_priority)
            ]
        else:
            groups = [(FillLevel.build(flows, provider), flows)] if flows else []
        # Levels fill in priority order; the rates keep the flows' order.
        rates = dict.fromkeys(ids, 0.0)

    bottleneck: Dict[FlowId, Optional[LinkId]] = {}
    for group_level, group in groups:
        residual = np.maximum(cap - load, 0.0)
        rate_arr, bn_arr, passes = _fill_one_level(
            group_level, group, provider, residual, load, topology.capacity_bps
        )
        iterations += passes
        rates.update(zip(group_level.flow_ids, rate_arr.tolist()))
        bottleneck.update(
            zip(group_level.flow_ids, np.where(bn_arr < 0, None, bn_arr).tolist())
        )

    return RateAllocation(
        rates_bps=rates,
        bottleneck_link=bottleneck,
        link_load_bps=load,
        link_capacity_bps=cap,
        iterations=iterations,
    )


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[start, start+count)`` index ranges, vectorized.

    Selects the CSR slices of many rows at once — the boolean-mask analogue
    of iterating ``indptr[i]:indptr[i+1]`` per frozen flow.
    """
    total = int(counts.sum())
    shifts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
    return np.repeat(starts - shifts, counts) + np.arange(total, dtype=np.int64)


def fill_matrix(
    matrix,
    phi: np.ndarray,
    demand: np.ndarray,
    residual: np.ndarray,
    linkless_cap: float = 0.0,
    weighted: Optional[Weighted] = None,
):
    """Water-fill the flows of *matrix* (one per row) onto *residual* capacity.

    This is the fill primitive of the batch :func:`waterfill`, one call
    per priority level through ``_fill_one_level``.  (The single-flow
    refill of :class:`repro.congestion.incremental.IncrementalWaterfill`
    is a scalar pass, not this kernel.)  It is pure: none of the inputs
    are mutated.

    The fill keeps, per link, ``slack`` (capacity not claimed by *frozen*
    flows) and ``denom`` (summed contributions of *unfrozen* flows), so a
    link saturates at the absolute level ``slack / denom`` whatever happens
    on other links.  Each pass takes the lowest such level, ``sat_min``.
    Every unfrozen flow whose demand level ``demand / phi`` is at or below
    it freezes at its demand in that one pass: freezing a flow only lowers
    ``denom``, which only raises saturation levels, so no link can saturate
    before those demands bind.  When no demand binds first, the links at
    ``sat_min`` freeze their unfrozen flows at ``phi * sat_min``.  The pass
    count is therefore bounded by the *binding constraints* (saturating
    links, plus the demand batches between them), not by the flow count.

    Args:
        matrix: A :class:`~repro.congestion.linkweights.LevelMatrix` whose
            rows are the flows to fill (CSR link-fraction weights).
        phi: Allocation weight per row.
        demand: Demand cap per row in bits/s (``inf`` = elastic).
        residual: Capacity available per link in bits/s (``matrix.n_links``
            entries).
        linkless_cap: Rate cap applied to rows that touch no links
            (``src == dst`` flows); batch fills pass the fabric link rate.
        weighted: ``matrix.weighted(phi)``, when the caller has it (it is
            read, never written); computed here otherwise.

    Returns:
        ``(rate_arr, bn_arr, passes)`` — allocated rate per row, bottleneck
        link id per row (``-1`` when demand-frozen or link-less), and the
        number of passes executed.
    """
    n_links = residual.size
    n_flows = matrix.n_flows
    rate_arr = np.zeros(n_flows, dtype=np.float64)
    bn_arr = np.full(n_flows, -1, dtype=np.int64)
    if n_flows == 0:
        return rate_arr, bn_arr, 0

    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    row_nnz = matrix.row_nnz
    # ``contrib`` scales each row by its flow's allocation weight: the load
    # flow f puts on each link per unit of fill level t (its rate being
    # phi_f * t); ``denom`` sums it per link.  ``live`` is the exact count
    # of unfrozen flows per link: floating-point dust left in ``denom`` by
    # subtraction must not make an all-frozen link look like a (tiny)
    # bottleneck.  Both per-link arrays are updated in place below.
    if weighted is None:
        contrib, denom, live = matrix.weighted(phi)
    else:
        contrib, denom, live = weighted[0], weighted[1].copy(), weighted[2].copy()
    slack = residual.astype(np.float64)  # astype copies

    #: fill level at which each *unfrozen* flow's demand binds; frozen
    #: flows are masked to +inf so one vectorized min covers the pass.
    with np.errstate(invalid="ignore"):
        demand_gate = np.where(np.isfinite(demand), demand / phi, np.inf)
    # Flows that touch no links (src == dst) are only demand- or
    # capacity-bound; they start out frozen.
    unfrozen = row_nnz > 0
    if not unfrozen.all():
        empty_rows = ~unfrozen
        rate_arr[empty_rows] = np.minimum(demand[empty_rows], linkless_cap)
        demand_gate[empty_rows] = np.inf

    #: level at which each link saturates; +inf once nobody unfrozen is on it
    sat = np.full(n_links, np.inf)
    np.divide(slack, denom, out=sat, where=denom > 0.0)

    passes = 0
    n_live = int(unfrozen.sum())
    while n_live:
        passes += 1
        sat_min = float(sat.min())
        if demand_gate.min() <= sat_min:
            if math.isinf(sat_min):
                # Neither a link nor a demand binds (zero-weight links
                # only): a configuration error, not an infinite rate.
                raise CongestionControlError(
                    "water-fill diverged: unfrozen flows with no binding constraint"
                )
            frozen = np.flatnonzero(demand_gate <= sat_min)
            rate_arr[frozen] = demand[frozen]
            unfrozen[frozen] = False
        else:
            # Everyone crossing a link saturating at sat_min, found through
            # the CSC pattern (link -> crossing rows).  Ascending link order
            # keeps the "first link wins" bottleneck attribution.
            tol = _REL_TOL * max(1.0, sat_min)
            parts = []
            for link in np.flatnonzero(sat <= sat_min + tol).tolist():
                rows = matrix.flows_on_link(link)
                rows = rows[unfrozen[rows]]
                if rows.size:
                    rate_arr[rows] = phi[rows] * sat_min
                    bn_arr[rows] = link
                    unfrozen[rows] = False
                    parts.append(rows)
            frozen = parts[0] if len(parts) == 1 else np.concatenate(parts)
        demand_gate[frozen] = np.inf
        n_live -= int(frozen.size)
        if not n_live:
            break

        # Retire the frozen rows: their load leaves ``slack``, their
        # contributions leave ``denom``.  Most link passes freeze only a
        # handful of flows, where per-row fancy-index updates (link ids are
        # unique within a CSR row) beat full-width bincount passes.
        if frozen.size <= 4:
            parts = []
            for i in frozen.tolist():
                seg = slice(indptr[i], indptr[i + 1])
                cols = indices[seg]
                slack[cols] -= data[seg] * rate_arr[i]
                denom[cols] -= contrib[seg]
                live[cols] -= 1
                parts.append(cols)
            touched = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            counts = row_nnz[frozen]
            take = _ragged_ranges(indptr[frozen], counts)
            cols = indices[take]
            claim = data[take] * np.repeat(rate_arr[frozen], counts)
            slack -= np.bincount(cols, weights=claim, minlength=n_links)
            denom -= np.bincount(cols, weights=contrib[take], minlength=n_links)
            live -= np.bincount(cols, minlength=n_links)
            touched = slice(None)
        # New saturation levels where something changed (subtraction dust
        # must not turn into a negative level).
        left = np.maximum(slack[touched], 0.0)
        slack[touched] = left
        d = denom[touched]
        level = np.full(left.size, np.inf)
        np.divide(left, d, out=level, where=(live[touched] > 0) & (d > 0.0))
        sat[touched] = level

    return rate_arr, bn_arr, passes


def _fill_one_level(
    level: FillLevel,
    flows: Sequence[FlowSpec],
    provider: WeightProvider,
    residual: np.ndarray,
    load: np.ndarray,
    linkless_cap: float,
):
    """Water-fill one priority level onto *residual* capacity.

    Reads the demands of *flows* (the level's specs, in its row order),
    runs :func:`fill_matrix` on the level's matrix and weighted rows, and
    adds the level's loads to ``load`` in place; returns ``fill_matrix``'s
    ``(rate_arr, bn_arr, passes)``.
    """
    matrix = level.matrix
    demand = np.fromiter(map(_demand_of, flows), dtype=np.float64, count=len(flows))
    rate_arr, bn_arr, passes = fill_matrix(
        matrix,
        level.phi,
        demand,
        residual,
        linkless_cap=linkless_cap,
        weighted=provider.weighted(matrix, level.phi),
    )
    # Commit this level's loads from the rows already gathered in the
    # matrix (no second weights_for pass).
    if matrix.indices.size:
        load += np.bincount(
            matrix.indices,
            weights=matrix.data * np.repeat(rate_arr, matrix.row_nnz),
            minlength=residual.size,
        )
    return rate_arr, bn_arr, passes
