"""Incremental weighted max-min across single-flow churn (ROADMAP item).

R2C2's rack controller recomputes rates whenever a flow arrives or finishes
(paper §3.3 / §4).  :func:`~repro.congestion.waterfill.waterfill` does this
from scratch in O(rack); under sustained churn that cost is paid per flow
event even though one arrival or departure usually perturbs only a small
neighbourhood of the rack.  :class:`IncrementalWaterfill` keeps the previous
allocation as ground state and patches it:

1. **Affected set.**  The changed flow's links seed a search: every flow
   sharing a link with the changed flow is affected, and the effect
   propagates further through *saturated* links only (an unsaturated link
   imposes no binding constraint, so flows beyond it keep their rates).
   The closure guarantees the key invariant: *every saturated link touched
   by an affected flow has all of its flows in the affected set*, so each
   unaffected flow's bottleneck link carries no affected flow and its
   max-min conditions survive the change untouched.
2. **Refill.**  The affected flows are re-filled from zero over the
   *residual* capacity (link capacity minus the load of unaffected flows)
   using the same :func:`~repro.congestion.waterfill.fill_matrix` passes
   as the batch path — O(affected links), not O(rack).
3. **Certification.**  The patched allocation is accepted only when it is
   provably the global max-min optimum: feasibility on every touched link,
   and no refilled flow bottlenecks on a link where an *unaffected* flow
   holds a higher fill level (weighted max-min is unique, so a certified
   candidate *is* the scratch allocation).  Any violation — or any change
   the patch logic does not model (priorities, routing-weight changes,
   failure-view flips) — falls back to a full recompute, counted in
   :attr:`IncrementalWaterfill.fallback_recomputes` so telemetry can track
   the incremental-vs-fallback ratio.

The correctness gate is the churn oracle in :mod:`repro.validation.churn`:
scratch ≡ incremental (≤1e-6) after every operation of seeded 10k-op
churn sequences.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..errors import CongestionControlError
from ..topology.base import Topology
from ..types import FlowId, LinkId
from .flowstate import FlowSpec
from .linkweights import LevelMatrix, WeightProvider
from .waterfill import (
    RateAllocation,
    _REL_TOL,
    effective_capacities,
    fill_matrix,
    waterfill,
)

#: Links whose free capacity is below this fraction of capacity are treated
#: as saturated when growing the affected set.  Slightly looser than the
#: fill's own ``_REL_TOL`` so floating-point dust over-includes (safe)
#: rather than under-includes (would skip flows whose rates must change).
_SAT_TOL = 4.0 * _REL_TOL

#: Tolerance for the optimality certificate (relative to the fill level /
#: link capacity under comparison).  Violations trigger a full recompute.
_CERT_TOL = 16.0 * _REL_TOL


def spec_to_dict(spec: FlowSpec) -> dict:
    """JSON-able dict for one :class:`FlowSpec` (snapshot format)."""
    return {
        "flow_id": spec.flow_id,
        "src": spec.src,
        "dst": spec.dst,
        "protocol": spec.protocol,
        "weight": spec.weight,
        "priority": spec.priority,
        "demand_bps": spec.demand_bps,
        "start_time_ns": spec.start_time_ns,
        "tenant": spec.tenant,
    }


def spec_from_dict(data: dict) -> FlowSpec:
    """Inverse of :func:`spec_to_dict`."""
    return FlowSpec(
        flow_id=int(data["flow_id"]),
        src=int(data["src"]),
        dst=int(data["dst"]),
        protocol=str(data["protocol"]),
        weight=float(data["weight"]),
        priority=int(data["priority"]),
        demand_bps=float(data["demand_bps"]),
        start_time_ns=int(data.get("start_time_ns", 0)),
        tenant=data.get("tenant"),
    )


class IncrementalWaterfill:
    """Maintain a weighted max-min allocation across single-flow churn.

    The mutating operations (:meth:`add_flow`, :meth:`remove_flow`,
    :meth:`update_demand`) try the O(affected) incremental patch first and
    fall back to a full scratch recompute whenever the patch cannot be
    certified optimal; :meth:`update_protocol` and :meth:`rebuild` always
    recompute (they change link memberships in ways the patch does not
    model).  After every operation :meth:`allocation` returns exactly what
    :func:`~repro.congestion.waterfill.waterfill` would compute from
    scratch over the live flow set (max-min allocations are unique).

    Attributes:
        incremental_ops: Operations served by the incremental patch.
        fallback_recomputes: Operations that fell back to a scratch fill.
        fallback_reasons: Fallback count per reason string.
    """

    def __init__(
        self,
        topology: Topology,
        provider: Optional[WeightProvider] = None,
        headroom: float = 0.0,
        capacities: Optional[np.ndarray] = None,
    ) -> None:
        self._topology = topology
        self._provider = provider if provider is not None else WeightProvider(topology)
        self._headroom = float(headroom)
        self._cap = effective_capacities(topology, headroom, capacities)
        self._specs: Dict[FlowId, FlowSpec] = {}
        self._rates: Dict[FlowId, float] = {}
        self._bottleneck: Dict[FlowId, Optional[LinkId]] = {}
        self._rows: Dict[FlowId, tuple] = {}  # flow -> (link_idx, fraction) arrays
        self._link_flows: Dict[LinkId, Set[FlowId]] = {}
        self._load = np.zeros(topology.n_links, dtype=np.float64)
        self._rounds = 0
        self.incremental_ops = 0
        self.fallback_recomputes = 0
        self.fallback_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def topology(self) -> Topology:
        """The fabric the allocation is computed over."""
        return self._topology

    @property
    def n_flows(self) -> int:
        """Number of live flows."""
        return len(self._specs)

    def flows(self) -> List[FlowSpec]:
        """Live flow specs, sorted by flow id."""
        return [self._specs[fid] for fid in sorted(self._specs)]

    def has_flow(self, flow_id: FlowId) -> bool:
        """Whether *flow_id* is currently announced."""
        return flow_id in self._specs

    def rate(self, flow_id: FlowId) -> float:
        """Current allocated rate of one flow in bits/s."""
        return self._rates[flow_id]

    def bottleneck(self, flow_id: FlowId) -> Optional[LinkId]:
        """The link that froze *flow_id*, or ``None`` (demand/link-less)."""
        return self._bottleneck[flow_id]

    def allocation(self) -> RateAllocation:
        """The live allocation as a :class:`RateAllocation` snapshot."""
        return RateAllocation(
            rates_bps=dict(self._rates),
            bottleneck_link=dict(self._bottleneck),
            link_load_bps=self._load.copy(),
            link_capacity_bps=self._cap.copy(),
            iterations=self._rounds,
        )

    def scratch_allocation(self) -> RateAllocation:
        """Recompute the allocation from scratch without touching state.

        The churn oracle compares this against :meth:`allocation` after
        every operation.
        """
        return waterfill(
            self._topology,
            self.flows(),
            self._provider,
            headroom=0.0,
            capacities=self._cap,
        )

    def stats(self) -> dict:
        """Operation counters: incremental vs fallback and per-reason."""
        total = self.incremental_ops + self.fallback_recomputes
        return {
            "incremental_ops": self.incremental_ops,
            "fallback_recomputes": self.fallback_recomputes,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "incremental_ratio": (self.incremental_ops / total) if total else 1.0,
            "n_flows": len(self._specs),
        }

    # ------------------------------------------------------------------ #
    # Mutating operations
    # ------------------------------------------------------------------ #

    def add_flow(self, spec: FlowSpec) -> None:
        """Announce *spec*; re-announcing a live id updates it in place."""
        if not (0 <= spec.src < self._topology.n_nodes):
            raise CongestionControlError(f"flow {spec.flow_id}: bad src {spec.src}")
        if not (0 <= spec.dst < self._topology.n_nodes):
            raise CongestionControlError(f"flow {spec.flow_id}: bad dst {spec.dst}")
        # Everything that can reject the spec runs before the table is
        # touched: a refused re-announce leaves the live flow as it was.
        links = self._links_of(spec)
        if spec.flow_id in self._specs:
            self.remove_flow(spec.flow_id)
        affected = self._affected_set(seed_links=links, extra=())
        self._install(spec)
        affected.add(spec.flow_id)
        self._patch_or_recompute(affected, op="add")

    def remove_flow(self, flow_id: FlowId) -> bool:
        """Finish *flow_id*; returns ``False`` when it was not announced."""
        spec = self._specs.get(flow_id)
        if spec is None:
            return False
        # Affected set and saturation are judged on the pre-removal load;
        # then the departed flow's own contribution leaves the load vector
        # before the refill (it is no longer in the flow table).
        affected = self._affected_set(seed_links=self._rows[flow_id][0], extra=())
        affected.discard(flow_id)
        idx, frac = self._rows[flow_id]
        old_rate = self._rates.get(flow_id, 0.0)
        if old_rate:
            self._load[idx] -= frac * old_rate
            np.maximum(self._load, 0.0, out=self._load)
        self._uninstall(flow_id)
        self._patch_or_recompute(affected, op="remove")
        return True

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> bool:
        """Change one flow's demand; returns ``False`` when unknown."""
        spec = self._specs.get(flow_id)
        if spec is None:
            return False
        if spec.demand_bps == demand_bps:
            return True
        self._specs[flow_id] = spec.with_demand(demand_bps)
        affected = self._affected_set(seed_links=self._rows[flow_id][0], extra=())
        affected.add(flow_id)
        self._patch_or_recompute(affected, op="demand")
        return True

    def update_protocol(self, flow_id: FlowId, protocol: str) -> bool:
        """Re-route one flow; always a full recompute (membership change)."""
        spec = self._specs.get(flow_id)
        if spec is None:
            return False
        self._uninstall(flow_id)
        self._install(spec.with_protocol(protocol))
        self._full_recompute("protocol_change")
        return True

    def rebuild(
        self,
        topology: Optional[Topology] = None,
        capacities: Optional[np.ndarray] = None,
    ) -> None:
        """Swap the topology / capacity view (e.g. a failure-view flip).

        Every link's membership and capacity may change, so this is always
        a full recompute.  Flow specs survive; cached link weights are
        rebuilt against the new fabric.
        """
        if topology is not None:
            if topology.n_nodes != self._topology.n_nodes:
                raise CongestionControlError(
                    "rebuild requires a same-node-set topology "
                    f"({topology.n_nodes} != {self._topology.n_nodes})"
                )
            self._topology = topology
            self._provider = WeightProvider(topology)
        self._cap = effective_capacities(self._topology, self._headroom, capacities)
        self._load = np.zeros(self._topology.n_links, dtype=np.float64)
        specs = self.flows()
        self._specs.clear()
        self._rows.clear()
        self._link_flows.clear()
        for spec in specs:
            self._install(spec)
        self._full_recompute("rebuild")

    # ------------------------------------------------------------------ #
    # State round-trip (daemon snapshot/restore)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-able exact state: specs, rates, bottlenecks, link loads.

        Rates and loads are stored as exact floats (JSON round-trips Python
        floats losslessly), so a restored instance answers allocation
        queries byte-identically to the uninterrupted one.
        """
        return {
            "flows": [spec_to_dict(self._specs[fid]) for fid in sorted(self._specs)],
            "rates": {str(fid): self._rates[fid] for fid in sorted(self._rates)},
            "bottleneck": {
                str(fid): self._bottleneck[fid] for fid in sorted(self._bottleneck)
            },
            "load": self._load.tolist(),
            "rounds": self._rounds,
            "incremental_ops": self.incremental_ops,
            "fallback_recomputes": self.fallback_recomputes,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output verbatim (no recompute)."""
        load = np.asarray(state["load"], dtype=np.float64)
        if load.shape != (self._topology.n_links,):
            raise CongestionControlError(
                f"snapshot has {load.size} link loads, topology has "
                f"{self._topology.n_links} links"
            )
        self._specs.clear()
        self._rows.clear()
        self._link_flows.clear()
        for data in state["flows"]:
            self._install(spec_from_dict(data))
        self._rates = {int(k): float(v) for k, v in state["rates"].items()}
        self._bottleneck = {
            int(k): (None if v is None else int(v))
            for k, v in state["bottleneck"].items()
        }
        if set(self._rates) != set(self._specs):
            raise CongestionControlError("snapshot rates do not match its flow set")
        self._load = load
        self._rounds = int(state.get("rounds", 0))
        self.incremental_ops = int(state.get("incremental_ops", 0))
        self.fallback_recomputes = int(state.get("fallback_recomputes", 0))
        self.fallback_reasons = {
            str(k): int(v) for k, v in state.get("fallback_reasons", {}).items()
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _links_of(self, spec: FlowSpec) -> np.ndarray:
        idx, _ = self._provider.weights_for(spec)
        return idx

    def _install(self, spec: FlowSpec) -> None:
        idx, frac = self._provider.weights_for(spec)
        self._specs[spec.flow_id] = spec
        self._rows[spec.flow_id] = (idx, frac)
        for link in idx.tolist():
            self._link_flows.setdefault(link, set()).add(spec.flow_id)

    def _uninstall(self, flow_id: FlowId) -> None:
        idx, _ = self._rows.pop(flow_id)
        del self._specs[flow_id]
        for link in idx.tolist():
            members = self._link_flows.get(link)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del self._link_flows[link]
        self._rates.pop(flow_id, None)
        self._bottleneck.pop(flow_id, None)

    def _saturated(self, link: int) -> bool:
        cap = self._cap[link]
        return (cap - self._load[link]) <= _SAT_TOL * max(1.0, cap)

    def _affected_set(self, seed_links: Iterable[int], extra: Iterable[FlowId]) -> Set[FlowId]:
        """Closure of flows whose rates may change.

        Seeds: every flow on a link of the changed flow.  Propagation: from
        each affected flow through its *saturated* links to all flows on
        those links, to fixpoint.
        """
        affected: Set[FlowId] = set(extra)
        queue: List[FlowId] = list(affected)
        for link in np.asarray(seed_links).tolist():
            for fid in self._link_flows.get(link, ()):
                if fid not in affected:
                    affected.add(fid)
                    queue.append(fid)
        while queue:
            fid = queue.pop()
            idx, _ = self._rows[fid]
            for link in idx.tolist():
                if not self._saturated(link):
                    continue
                for other in self._link_flows.get(link, ()):
                    if other not in affected:
                        affected.add(other)
                        queue.append(other)
        return affected

    def _patch_or_recompute(self, affected: Set[FlowId], op: str) -> None:
        if any(spec.priority != 0 for spec in self._specs.values()):
            # Priority levels consume capacity hierarchically; the patch
            # models a single level only.
            self._full_recompute("priorities")
            return
        if self._try_patch(affected):
            self.incremental_ops += 1
        else:
            self._full_recompute("certification")

    def _try_patch(self, affected: Set[FlowId]) -> bool:
        """Refill *affected* on residual capacity; certify; commit.

        Returns ``False`` (state untouched except the flow-table change
        already applied) when the certificate fails.
        """
        aff = sorted(fid for fid in affected if fid in self._specs)
        n_links = self._topology.n_links

        # Load contributed by the affected flows under their *old* rates.
        aff_load = np.zeros(n_links, dtype=np.float64)
        for fid in aff:
            idx, frac = self._rows[fid]
            old = self._rates.get(fid, 0.0)
            if old:
                aff_load[idx] += frac * old
        base_load = self._load - aff_load
        np.maximum(base_load, 0.0, out=base_load)
        residual = np.maximum(self._cap - base_load, 0.0)

        if aff:
            rows = [self._rows[fid] for fid in aff]
            matrix = LevelMatrix.build(rows, n_links)
            n_aff = len(aff)
            phi = np.fromiter(
                (self._specs[fid].weight for fid in aff), dtype=np.float64, count=n_aff
            )
            demand = np.fromiter(
                (self._specs[fid].demand_bps for fid in aff),
                dtype=np.float64,
                count=n_aff,
            )
            rate_arr, bn_arr, rounds = fill_matrix(
                matrix, phi, demand, residual,
                linkless_cap=self._topology.capacity_bps,
            )
            new_aff_load = np.zeros(n_links, dtype=np.float64)
            if matrix.indices.size:
                new_aff_load = np.bincount(
                    matrix.indices,
                    weights=matrix.data * np.repeat(rate_arr, matrix.row_nnz),
                    minlength=n_links,
                )
            touched = np.unique(matrix.indices)
        else:
            rate_arr = np.zeros(0, dtype=np.float64)
            bn_arr = np.zeros(0, dtype=np.int64)
            rounds = 0
            new_aff_load = np.zeros(n_links, dtype=np.float64)
            touched = np.empty(0, dtype=np.int64)

        new_load = base_load + new_aff_load

        if not self._certify(aff, rate_arr, bn_arr, new_load, touched, affected):
            return False

        # Commit.
        for pos, fid in enumerate(aff):
            self._rates[fid] = float(rate_arr[pos])
            bn = int(bn_arr[pos])
            self._bottleneck[fid] = None if bn < 0 else bn
        self._load = new_load
        self._rounds += rounds
        return True

    def _certify(
        self,
        aff: List[FlowId],
        rate_arr: np.ndarray,
        bn_arr: np.ndarray,
        new_load: np.ndarray,
        touched: np.ndarray,
        affected: Set[FlowId],
    ) -> bool:
        """Prove the patched allocation is the global max-min optimum.

        Three checks, any failure rejects the patch:

        * feasibility on every touched link;
        * each refilled flow frozen on link *l* holds the maximal fill
          level among all flows on *l* (otherwise true max-min would take
          capacity from the higher-level unaffected flow);
        * no unaffected flow's bottleneck link lost its saturation.
        """
        touched_list = touched.tolist()
        for link in touched_list:
            cap = self._cap[link]
            if new_load[link] > cap + _CERT_TOL * max(1.0, cap):
                return False

        for pos, fid in enumerate(aff):
            link = int(bn_arr[pos])
            if link < 0:
                continue
            phi = self._specs[fid].weight
            level = rate_arr[pos] / phi
            for other in self._link_flows.get(link, ()):
                if other in affected:
                    continue
                other_level = self._rates[other] / self._specs[other].weight
                if other_level > level + _CERT_TOL * max(1.0, level):
                    return False

        for link in touched_list:
            cap = self._cap[link]
            if new_load[link] >= cap - _CERT_TOL * max(1.0, cap):
                continue
            for other in self._link_flows.get(link, ()):
                if other not in affected and self._bottleneck.get(other) == link:
                    # An unaffected flow believed this link was its binding
                    # constraint, but the patch left headroom on it.
                    return False
        return True

    def _full_recompute(self, reason: str) -> None:
        alloc = waterfill(
            self._topology,
            self.flows(),
            self._provider,
            headroom=0.0,
            capacities=self._cap,
        )
        self._rates = dict(alloc.rates_bps)
        self._bottleneck = dict(alloc.bottleneck_link)
        self._load = alloc.link_load_bps
        self._rounds += alloc.iterations
        self.fallback_recomputes += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1


__all__ = [
    "IncrementalWaterfill",
    "spec_from_dict",
    "spec_to_dict",
]
