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
   max-min conditions survive the change untouched.  The search gives up
   once the set's rows hold more than ``max(_PATCH_NNZ_FLOOR,
   _PATCH_NNZ_SHARE * table non-zeros)`` non-zeros: past that measured
   crossover (a sprayed table, where a flow shares links with most others)
   the scratch fill is cheaper, and the op is an ``affected_set`` fallback.
2. **Refill.**  The affected flows are re-filled from zero over the
   *residual* capacity (link capacity minus the load of unaffected flows)
   by the passes of :func:`~repro.congestion.waterfill.fill_matrix` in
   plain floats over the touched links only (dicts keyed by link id, no
   rack-wide vector) — O(affected non-zeros), not O(rack).  Sums run in
   row order, saturating links are visited in ascending id and frozen rows
   retire as the kernel retires them, so a patch is bit-equal to the kernel
   on the same rows (``tests/service/test_golden_allocations.py``).
3. **Certification.**  The patched allocation is accepted only when it is
   provably the global max-min optimum: feasibility on every touched link,
   and no refilled flow bottlenecks on a link where an *unaffected* flow
   holds a higher fill level (weighted max-min is unique, so a certified
   candidate *is* the scratch allocation).  Any violation — or any change
   the patch logic does not model (priorities, routing-weight changes,
   failure-view flips) — falls back to a full recompute, counted per
   reason in :attr:`IncrementalWaterfill.fallback_reasons` so telemetry can
   track the incremental-vs-fallback ratio.

The correctness gate is the churn oracle in :mod:`repro.validation.churn`:
scratch ≡ incremental (≤1e-6) after every operation of seeded 10k-op
churn sequences.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

import numpy as np

from ..errors import CongestionControlError
from ..topology.base import Topology
from ..types import FlowId, LinkId
from .flowstate import FlowSpec
from .linkweights import WeightProvider
from .waterfill import RateAllocation, _REL_TOL, effective_capacities, waterfill

#: Links whose free capacity is below this fraction of capacity are treated
#: as saturated when growing the affected set.  Slightly looser than the
#: fill's own ``_REL_TOL`` so floating-point dust over-includes (safe)
#: rather than under-includes (would skip flows whose rates must change).
_SAT_TOL = 4.0 * _REL_TOL

#: Tolerance for the optimality certificate (relative to the fill level /
#: link capacity under comparison).  Violations trigger a full recompute.
_CERT_TOL = 16.0 * _REL_TOL

#: An affected set is patched while its rows hold at most ``max(floor, share
#: * table non-zeros)`` non-zeros; beyond, the scratch fill is cheaper.  From
#: ``bench_service_churn.py``'s crossover table (DESIGN §6a; 512 flows, 8x8x8):
#: on the ecmp tables (3.0k nnz) the patch meets the scratch fill at 0.9-1.6k
#: affected non-zeros (the daemon op lists stay under 400) ...
_PATCH_NNZ_FLOOR = 1024
#: ... and on the rps tables (40k nnz) at 2.0-3.6k, 5-9 % of the table.
_PATCH_NNZ_SHARE = 0.05


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
    :meth:`update_demand`) patch when the affected set is small — the
    strategy is chosen from its size, see the module docstring — and fall
    back to a full scratch recompute when it is not or when the patch cannot
    be certified optimal; :meth:`update_protocol` and :meth:`rebuild` always
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
        self._set_capacities(effective_capacities(topology, headroom, capacities))
        self._clear_table()
        self._rates: Dict[FlowId, float] = {}
        self._bottleneck: Dict[FlowId, Optional[LinkId]] = {}
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
        row = self._provider.weights_for(spec)
        if spec.flow_id in self._specs:
            self._remove(spec.flow_id, successor=spec)
        links = self._install(spec, row)
        self._patch_or_recompute(self._affected_set(spec.flow_id, links))

    def remove_flow(self, flow_id: FlowId) -> bool:
        """Finish *flow_id*; returns ``False`` when it was not announced."""
        if flow_id not in self._specs:
            return False
        self._remove(flow_id)
        return True

    def _remove(self, flow_id: FlowId, successor: Optional[FlowSpec] = None) -> None:
        # Affected set and saturation are judged on the pre-removal load; then
        # the departed flow's contribution leaves the loads the patch works on.
        links, fracs = self._rows[flow_id]
        work = self._affected_set(flow_id, links)
        old_rate = self._rates.get(flow_id, 0.0)
        self._uninstall(flow_id, successor)
        if work is not None:
            affected, loads = work
            affected.discard(flow_id)
            for link, frac in zip(links, fracs):
                loads[link] = max(loads[link] - frac * old_rate, 0.0)
        self._patch_or_recompute(work)

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> bool:
        """Change one flow's demand; returns ``False`` when unknown."""
        spec = self._specs.get(flow_id)
        if spec is None:
            return False
        if spec.demand_bps == demand_bps:
            return True
        self._specs[flow_id] = spec.with_demand(demand_bps)
        self._patch_or_recompute(self._affected_set(flow_id, self._rows[flow_id][0]))
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
        self._set_capacities(effective_capacities(self._topology, self._headroom, capacities))
        self._load = np.zeros(self._topology.n_links, dtype=np.float64)
        specs = self.flows()
        self._clear_table()
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
        self._clear_table()
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

    def _set_capacities(self, cap: np.ndarray) -> None:
        # Plain floats, once per capacity vector: the patch reads them per link.
        self._cap = cap
        self._caps = cap.tolist()
        self._sat_slack = [_SAT_TOL * max(1.0, c) for c in self._caps]
        self._cert_slack = [_CERT_TOL * max(1.0, c) for c in self._caps]

    def _clear_table(self) -> None:
        self._specs: Dict[FlowId, FlowSpec] = {}
        self._rows: Dict[FlowId, tuple] = {}  # flow -> (link ids, fractions) lists
        self._link_flows: Dict[LinkId, Set[FlowId]] = {}
        self._nnz = 0  # non-zeros of the table: the sum of its row lengths
        self._prioritized = 0  # flows with a non-zero priority

    def _install(self, spec: FlowSpec, row=None) -> List[int]:
        idx, frac = row if row is not None else self._provider.weights_for(spec)
        links = idx.tolist()
        self._specs[spec.flow_id] = spec
        self._rows[spec.flow_id] = (links, frac.tolist())
        self._nnz += len(links)
        self._prioritized += spec.priority != 0
        for link in links:
            self._link_flows.setdefault(link, set()).add(spec.flow_id)
        return links

    def _uninstall(self, flow_id: FlowId, successor: Optional[FlowSpec] = None) -> None:
        links, _ = self._rows.pop(flow_id)
        spec = self._specs.pop(flow_id)
        self._nnz -= len(links)
        self._prioritized -= spec.priority != 0
        self._provider._forget(spec, unless=successor)
        for link in links:
            members = self._link_flows[link]
            members.discard(flow_id)
            if not members:
                del self._link_flows[link]
        self._rates.pop(flow_id, None)
        self._bottleneck.pop(flow_id, None)

    def _affected_set(self, changed: FlowId, seed_links: List[int]):
        """Closure of flows whose rates may change, with the loads it read.

        Seeds: every flow on a link of the changed flow.  Propagation: from
        each affected flow through its *saturated* links to all flows on
        those links, to fixpoint.  Returns ``(affected, loads)``, ``loads``
        mapping each link of the seed and of an affected flow to its load
        (one fancy-index read per wave), or ``None`` past the patch budget.
        """
        rows, link_flows = self._rows, self._link_flows
        caps, sat_slack = self._caps, self._sat_slack
        budget = max(_PATCH_NNZ_FLOOR, _PATCH_NNZ_SHARE * self._nnz)
        affected: Set[FlowId] = {changed}  # a link-less flow is on no seed link
        loads: Dict[int, float] = {}
        nnz = 0
        fresh, seeding = seed_links, True
        while fresh:
            wave = []
            for link, load in zip(fresh, self._load[fresh].tolist()):
                loads[link] = load
                if seeding or caps[link] - load <= sat_slack[link]:
                    for fid in link_flows.get(link, ()):
                        if fid not in affected:
                            affected.add(fid)
                            wave.append(fid)
                            nnz += len(rows[fid][0])
                            if nnz > budget:
                                return None
            fresh, seeding = [], False
            for fid in wave:
                for link in rows[fid][0]:
                    if link not in loads:
                        loads[link] = 0.0  # claimed; read with the next wave
                        fresh.append(link)
        return affected, loads

    def _patch_or_recompute(self, work) -> None:
        if self._prioritized:
            # Priority levels consume capacity hierarchically; the patch
            # models a single level only.
            self._full_recompute("priorities")
        elif work is None:
            self._full_recompute("affected_set")
        elif self._try_patch(*work):
            self.incremental_ops += 1
        else:
            self._full_recompute("certification")

    def _try_patch(self, affected: Set[FlowId], loads: Dict[int, float]) -> bool:
        """Refill *affected* on residual capacity; certify; commit.

        ``fill_matrix``'s operations in its order: per-link sums accumulate
        in row (flow id) order like ``bincount``, and rows retire as it
        retires them.  Returns ``False`` (state untouched except the
        flow-table change already applied) when the certificate fails.
        """
        specs, rows, caps = self._specs, self._rows, self._caps
        aff = sorted(affected)
        phi = [specs[fid].weight for fid in aff]
        demand = [specs[fid].demand_bps for fid in aff]
        rate, bn = [None] * len(aff), [-1] * len(aff)  # None: not frozen yet
        gate = [math.inf] * len(aff)  # level at which an unfrozen row's demand binds
        # Per touched link: the affected rows on it (ascending), their load at
        # the old rates (then: what the unaffected flows load), and the summed
        # contributions of the unfrozen rows.
        on_link, base, denom = {}, {}, {}
        for pos, fid in enumerate(aff):
            links, fracs = rows[fid]
            if not links:
                rate[pos] = min(demand[pos], self._topology.capacity_bps)
                continue
            if demand[pos] < math.inf:
                gate[pos] = demand[pos] / phi[pos]
            old, w = self._rates.get(fid, 0.0), phi[pos]
            for link, frac in zip(links, fracs):
                members = on_link.get(link)
                if members is None:
                    on_link[link] = [pos]
                    base[link] = frac * old
                    denom[link] = frac * w
                else:
                    members.append(pos)
                    base[link] += frac * old
                    denom[link] += frac * w
        # ... the capacity frozen rows have not claimed, the exact count of
        # unfrozen rows (``denom`` keeps dust) and the level it saturates at.
        slack, live, sat = {}, {}, {}
        for link, members in on_link.items():
            rest = loads[link] - base[link]
            base[link] = rest = rest if rest > 0.0 else 0.0
            left = caps[link] - rest
            slack[link] = left = left if left > 0.0 else 0.0
            live[link] = len(members)
            sat[link] = left / denom[link] if denom[link] > 0.0 else math.inf

        passes, n_live = 0, rate.count(None)
        while n_live:
            passes += 1
            sat_min = min(sat.values())
            if min(gate) <= sat_min:
                if sat_min == math.inf:
                    raise CongestionControlError(
                        "water-fill diverged: unfrozen flows with no binding constraint")
                frozen = [pos for pos, level in enumerate(gate) if level <= sat_min]
                for pos in frozen:
                    rate[pos] = demand[pos]
            else:
                ceiling = sat_min + _REL_TOL * max(1.0, sat_min)
                frozen = []
                for link in sorted([l for l, level in sat.items() if level <= ceiling]):
                    for pos in on_link[link]:
                        if rate[pos] is None:  # first link wins
                            rate[pos] = phi[pos] * sat_min
                            bn[pos] = link
                            frozen.append(pos)
            for pos in frozen:
                gate[pos] = math.inf
            n_live -= len(frozen)
            if not n_live:
                break
            # fill_matrix retires up to four rows one by one and more
            # through a summed claim; the two round differently.
            summed = len(frozen) > 4
            claim, gone, touched = {}, {}, []
            for pos in frozen:
                links, fracs = rows[aff[pos]]
                r, w = rate[pos], phi[pos]
                touched += links
                if summed:
                    for link, frac in zip(links, fracs):
                        claim[link] = claim.get(link, 0.0) + frac * r
                        gone[link] = gone.get(link, 0.0) + frac * w
                else:
                    for link, frac in zip(links, fracs):
                        slack[link] -= frac * r
                        denom[link] -= frac * w
            for link, load in claim.items():
                slack[link] -= load
                denom[link] -= gone[link]
            for link in touched:  # once per retired row on the link
                live[link] -= 1
                left = slack[link]
                if left < 0.0:
                    left = slack[link] = 0.0
                d = denom[link]
                sat[link] = left / d if live[link] > 0 and d > 0.0 else math.inf

        new_load = dict.fromkeys(on_link, 0.0)
        for pos, fid in enumerate(aff):
            links, fracs = rows[fid]
            r = rate[pos]
            for link, frac in zip(links, fracs):
                new_load[link] += frac * r
        for link, load in new_load.items():
            new_load[link] = base[link] + load

        if not self._certify(affected, zip(bn, rate, phi), new_load):
            return False
        for fid, r, link in zip(aff, rate, bn):
            self._rates[fid] = r
            self._bottleneck[fid] = None if link < 0 else link
        loads.update(new_load)
        if loads:
            self._load[list(loads)] = list(loads.values())
        self._rounds += passes
        return True

    def _certify(self, affected: Set[FlowId], refilled, new_load: Dict[int, float]) -> bool:
        """Prove the patched allocation is the global max-min optimum.

        Three checks over the touched links, any failure rejects the patch:

        * feasibility on every touched link;
        * no unaffected flow's bottleneck link lost its saturation;
        * each refilled flow frozen on link *l* holds the maximal fill
          level among all flows on *l* (otherwise true max-min would take
          capacity from the higher-level unaffected flow).
        """
        caps, cert_slack, link_flows = self._caps, self._cert_slack, self._link_flows
        for link, load in new_load.items():
            if load > caps[link] + cert_slack[link]:
                return False
            if load < caps[link] - cert_slack[link]:
                for other in link_flows[link]:
                    if other not in affected and self._bottleneck.get(other) == link:
                        return False
        top: Dict[int, float] = {}  # link -> highest level an unaffected flow holds
        for link, r, w in refilled:
            if link < 0:
                continue
            if link not in top:
                top[link] = max(
                    [self._rates[o] / self._specs[o].weight
                     for o in link_flows[link] if o not in affected],
                    default=0.0,
                )
            level = r / w
            if top[link] > level + _CERT_TOL * max(1.0, level):
                return False
        return True

    def _full_recompute(self, reason: str) -> None:
        alloc = self.scratch_allocation()
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
