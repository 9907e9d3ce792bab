"""Flow descriptions and the per-node flow table.

Every rack node learns about all active flows from broadcast packets (§3.1)
and stores them in a :class:`FlowTable` — its local view of the global
traffic matrix.  A :class:`FlowSpec` carries exactly the fields the 16-byte
broadcast packet announces: endpoints, allocation weight, priority, demand
and the routing protocol in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, KeysView, List, Optional, Tuple

from ..errors import CongestionControlError
from ..routing.base import protocol_class
from ..types import FlowId, NodeId
from ..wire.packets import EVENT_DEMAND_UPDATE, EVENT_FLOW_FINISH, EVENT_FLOW_START


@dataclass(frozen=True)
class FlowSpec:
    """Control-plane description of one flow.

    Attributes:
        flow_id: Rack-unique flow identifier.
        src: Sending node.
        dst: Receiving node.
        protocol: Registered routing-protocol name (``"rps"``, ``"vlb"``...).
        weight: Allocation weight; rates on a shared bottleneck are split in
            proportion to it (§3.3.2, "Beyond per-flow fairness").
        priority: Allocation priority; **lower numbers allocate first** and
            each priority level only receives capacity left over by the
            levels before it.
        demand_bps: Estimated maximum rate the flow can actually use
            (host-limited flows, §3.3.2); ``inf`` means network-limited.
        start_time_ns: When the flow started, used by the batching logic to
            exempt very young flows from rate-limiting.
        tenant: Optional tenant tag consumed by allocation policies.
        fingerprints: Two independently salted 64-bit hashes of the fields
            above except ``start_time_ns`` and ``tenant``, folded into
            :attr:`FlowTable.content_key`.  Computed once per object, since
            one broadcast spec is added to every node's table.
    """

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    protocol: str = "rps"
    weight: float = 1.0
    priority: int = 0
    demand_bps: float = math.inf
    start_time_ns: int = 0
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise CongestionControlError(
                f"flow {self.flow_id}: weight must be positive, got {self.weight}"
            )
        if self.priority < 0:
            raise CongestionControlError(
                f"flow {self.flow_id}: priority must be >= 0, got {self.priority}"
            )
        if self.demand_bps <= 0:
            raise CongestionControlError(
                f"flow {self.flow_id}: demand must be positive, got {self.demand_bps}"
            )
        # Set during __init__, not memoised on first use: a write through
        # the instance __dict__ later (as functools.cached_property does)
        # moves the fields out of CPython's inline storage and makes every
        # field read about twice as slow.
        object.__setattr__(self, "fingerprints", _fingerprints(self))

    @classmethod
    def from_wire(
        cls, message, start_time_ns: int = 0, tenant: Optional[str] = None
    ) -> "FlowSpec":
        """The flow a decoded broadcast packet or FLOW_ANNOUNCE announces.

        R2C2 nodes and the daemon build every spec that arrives by wire
        here, and a sender builds its own from the decoding of what it
        sends, so all of them allocate from the same quantized weight and
        demand (§3.3) — and a restored daemon from the same specs as a live
        one.  The tenant never travels on the wire.
        """
        protocol = protocol_class(message.protocol_id).name
        return cls(
            message.flow_id, message.src, message.dst, protocol, message.weight,
            message.priority, message.demand_bps, start_time_ns, tenant,
        )

    def with_demand(self, demand_bps: float) -> "FlowSpec":
        """Copy of this spec with an updated demand estimate."""
        return replace(self, demand_bps=demand_bps)

    def with_protocol(self, protocol: str) -> "FlowSpec":
        """Copy of this spec routed by a different protocol (§3.4)."""
        return replace(self, protocol=protocol)

    def __setstate__(self, state: dict) -> None:
        # ``hash`` of a ``str`` differs between processes: a pickled
        # fingerprint is stale in the process that unpickles it.
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "fingerprints", _fingerprints(self))


#: Independent salts folding each spec into the table's content fingerprint.
_FP_SALT_A = 0x9E3779B97F4A7C15
_FP_SALT_B = 0xC2B2AE3D27D4EB4F
_FP_MASK = (1 << 64) - 1


def _fingerprints(spec: FlowSpec) -> Tuple[int, int]:
    """Two salted 64-bit hashes of the allocation-relevant fields of one spec."""
    fields = (
        spec.flow_id,
        spec.src,
        spec.dst,
        spec.protocol,
        spec.weight,
        spec.priority,
        spec.demand_bps,
    )
    return (
        hash((_FP_SALT_A, *fields)) & _FP_MASK,
        hash((_FP_SALT_B, *fields)) & _FP_MASK,
    )


class FlowTable:
    """A node's view of all active flows in the rack.

    Mutations bump a generation counter so consumers (the rate controller)
    can cheaply detect whether anything changed since their last computation.
    A second counter, the *membership generation*, moves only with what a
    water-fill derives its rows from — which flows there are, their
    endpoints, protocols, weights and priorities: ``add`` (re-announces
    included), ``remove`` and ``update_protocol`` bump it, ``update_demand``
    does not.  While it stands still the controller refills the level it
    already built.  The table also maintains an O(1) *content* fingerprint
    — an XOR fold of two independently salted hashes over every spec's
    allocation-relevant fields — so controllers on different nodes whose views happen to agree
    (same flows, possibly learned in different broadcast order) produce the
    same :attr:`content_key` and can share memoized allocations.
    """

    def __init__(self) -> None:
        self._flows: Dict[FlowId, FlowSpec] = {}
        self._generation = 0
        self._membership = 0
        self._fp_a = 0
        self._fp_b = 0

    @property
    def generation(self) -> int:
        """Monotonic counter, incremented on every mutation."""
        return self._generation

    @property
    def membership_generation(self) -> int:
        """Monotonic counter, incremented by every mutation except a demand
        update (see the class docstring)."""
        return self._membership

    @property
    def content_key(self) -> tuple:
        """Order-independent O(1) digest of the table contents.

        Two tables holding the same specs — regardless of mutation history —
        have equal keys; the double-salted 64-bit fold makes accidental
        collisions between *different* contents vanishingly unlikely.
        """
        return (len(self._flows), self._fp_a, self._fp_b)

    def _fold_in(self, spec: FlowSpec) -> None:
        fp_a, fp_b = spec.fingerprints
        self._fp_a ^= fp_a
        self._fp_b ^= fp_b

    # XOR is its own inverse, so folding a spec out is folding it in again.
    _fold_out = _fold_in

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: FlowId) -> bool:
        return flow_id in self._flows

    def __iter__(self) -> Iterator[FlowSpec]:
        return iter(self._flows.values())

    def get(self, flow_id: FlowId) -> Optional[FlowSpec]:
        """The spec for *flow_id*, or ``None`` if unknown."""
        return self._flows.get(flow_id)

    def add(self, spec: FlowSpec) -> None:
        """Record a flow-start announcement.

        Re-announcements (e.g. after a failure triggers a re-broadcast of all
        ongoing flows, §3.2) simply overwrite the stored spec.
        """
        previous = self._flows.get(spec.flow_id)
        if previous is not None:
            self._fold_out(previous)
        self._flows[spec.flow_id] = spec
        self._fold_in(spec)
        self._generation += 1
        self._membership += 1

    def remove(self, flow_id: FlowId) -> bool:
        """Record a flow-finish announcement; returns False if unknown.

        Unknown ids are tolerated because finish broadcasts can outrace the
        corresponding start broadcast along a different tree.
        """
        spec = self._flows.pop(flow_id, None)
        if spec is None:
            return False
        self._fold_out(spec)
        self._generation += 1
        self._membership += 1
        return True

    def update_demand(self, flow_id: FlowId, demand_bps: float) -> bool:
        """Apply a demand-update broadcast; returns False if unknown."""
        spec = self._flows.get(flow_id)
        if spec is None:
            return False
        updated = spec.with_demand(demand_bps)
        self._fold_out(spec)
        self._flows[flow_id] = updated
        self._fold_in(updated)
        self._generation += 1
        return True

    def settle(self, journal: List[Tuple[int, object]]) -> None:
        """Apply a journal of learned broadcasts in one pass, then clear it
        in place (the list object stays, so a bound ``journal.append`` a
        deliverer resolved once keeps filling it).

        Each entry is ``(event, data)`` as :class:`~repro.core.node.R2C2Node`
        announces it: a start carries the spec, a finish the flow id, a
        demand update ``(flow_id, demand_bps)``.  The result equals
        :meth:`add` / :meth:`remove` / :meth:`update_demand` applied in
        journal order — same dict order, :attr:`content_key` and both
        generations — but a flow that starts *and* finishes inside one
        journal never enters the dict:

        * a start of an absent flow waits in an ordered pending dict (a
          re-announce of a pending flow overwrites it in place, as
          :meth:`add` overwrites a present one);
        * a demand update of a pending flow folds into its spec;
        * a finish of a pending flow cancels it, bumping both generations
          by 2, as the add and the remove would have;
        * every other event applies to the dict at once, in order.

        The surviving pending flows are inserted last, in the order of
        their starts: exactly where the eager adds would have put them,
        since nothing else appends to the dict.  An unknown event raises
        :class:`~repro.errors.CongestionControlError` (a
        :class:`~repro.errors.ReproError`) after the entries before it
        apply; the entries after it stay journaled.
        """
        flows = self._flows
        pending: Dict[FlowId, FlowSpec] = {}
        fp_a, fp_b = self._fp_a, self._fp_b
        members = demands = 0
        unknown = None
        for event, data in journal:
            if event == EVENT_FLOW_START:
                flow_id = data.flow_id
                held = flows.get(flow_id)
                if held is None:
                    pending[flow_id] = data
                else:
                    flows[flow_id] = data
                    old_a, old_b = held.fingerprints
                    new_a, new_b = data.fingerprints
                    fp_a ^= old_a ^ new_a
                    fp_b ^= old_b ^ new_b
                members += 1
            elif event == EVENT_FLOW_FINISH:
                if pending.pop(data, None) is None:
                    held = flows.pop(data, None)
                    if held is None:
                        continue  # a finish that outraced its start
                    old_a, old_b = held.fingerprints
                    fp_a ^= old_a
                    fp_b ^= old_b
                members += 1
            elif event == EVENT_DEMAND_UPDATE:
                flow_id, demand_bps = data
                spec = pending.get(flow_id)
                if spec is not None:
                    pending[flow_id] = spec.with_demand(demand_bps)
                else:
                    held = flows.get(flow_id)
                    if held is None:
                        continue
                    flows[flow_id] = updated = held.with_demand(demand_bps)
                    old_a, old_b = held.fingerprints
                    new_a, new_b = updated.fingerprints
                    fp_a ^= old_a ^ new_a
                    fp_b ^= old_b ^ new_b
                demands += 1
            else:
                unknown = (event, data)
                break
        for flow_id, spec in pending.items():
            flows[flow_id] = spec
            new_a, new_b = spec.fingerprints
            fp_a ^= new_a
            fp_b ^= new_b
        self._fp_a, self._fp_b = fp_a, fp_b
        self._generation += members + demands
        self._membership += members
        if unknown is None:
            journal.clear()
            return
        # The first entry equal to the unknown one is that entry: an earlier
        # equal one would have stopped the pass there.
        del journal[: journal.index(unknown) + 1]
        raise CongestionControlError(f"unknown broadcast event {unknown[0]}")

    def update_protocol(self, flow_id: FlowId, protocol: str) -> bool:
        """Apply a routing-reassignment broadcast; returns False if unknown."""
        spec = self._flows.get(flow_id)
        if spec is None:
            return False
        updated = spec.with_protocol(protocol)
        self._fold_out(spec)
        self._flows[flow_id] = updated
        self._fold_in(updated)
        self._generation += 1
        self._membership += 1
        return True

    def flows_from(self, node: NodeId) -> List[FlowSpec]:
        """All flows whose sender is *node* (the ones the node rate-limits)."""
        return [spec for spec in self._flows.values() if spec.src == node]

    def flow_ids(self) -> KeysView[FlowId]:
        """Live view of the active flow ids, in insertion order."""
        return self._flows.keys()

    def specs(self, flow_ids: Iterable[FlowId]) -> List[FlowSpec]:
        """The specs of *flow_ids*, in their order (all must be present)."""
        return list(map(self._flows.__getitem__, flow_ids))

    def snapshot(self) -> List[FlowSpec]:
        """Stable list of all active flows, ordered by flow id."""
        return self.specs(sorted(self._flows))
