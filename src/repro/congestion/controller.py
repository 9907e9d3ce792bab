"""The per-node rate controller: batching, headroom and young-flow policy.

This is the control loop of §3.3.2's "periodic rate computation": flow
events mutate the node's :class:`~repro.congestion.flowstate.FlowTable`
immediately (they arrive by broadcast), but rates are only recomputed every
``recompute_interval_ns`` (ρ, 500 µs in the paper's experiments).

Flows younger than one interval are deliberately *not* rate-limited — the
paper argues batching "naturally filters out very short-lived flows, which
would be pointless to rate-limit" and sizes the 5 % headroom to absorb them.
Until its first epoch a young flow runs at the rate its initial-rate policy
grants.  ρ = 0 means no batching: every flow start and finish recomputes.

The controller also records the wall-clock cost of every recomputation,
which is the quantity Figure 8 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CongestionControlError
from ..lru import BoundedLru
from ..telemetry.trace import TRACK_CONTROLLER
from ..topology.base import Topology
from ..types import FlowId, NodeId, usec
from ..wire.packets import EVENT_DEMAND_UPDATE
from .flowstate import FlowSpec, FlowTable
from .linkweights import WeightProvider
from .waterfill import FillLevel, RateAllocation, effective_capacities, waterfill


@dataclass
class ControllerConfig:
    """The control loop of §3.3.2: the one description every model shares.

    Attributes:
        headroom: Link-capacity fraction withheld from allocation (§3.3.2);
            the paper uses 5 %.
        recompute_interval_ns: Batch recomputation period ρ; 500 µs default.
            With ρ > 0, flows that have not yet seen an epoch boundary ride
            the headroom at their initial rate; ρ = 0 recomputes at every
            flow start and finish (no young flows).
        initial_rate_policy: Rate granted to young flows (flows that have
            not yet been covered by an epoch).  The paper's §3.1 narrative
            is that "the sender computes the flow's fair allocation and
            rate limits it accordingly" at flow start, while §3.3.2 batches
            *re*-computation; the policies trade fidelity for cost:

            * ``"local_waterfill"`` (default, the §3.1 reading): the sender
              runs one water-fill when its own flow starts and pins the new
              flow's rate from it; everyone else's rates update at epochs.
            * ``"mean_allocated"``: cheap estimate — the mean rate of the
              last allocation, capped at one link's line rate.
            * ``"line_rate"``: blast at one link's capacity and let the
              headroom absorb it (the most literal batching-only reading).
    """

    headroom: float = 0.05
    recompute_interval_ns: int = usec(500)
    initial_rate_policy: str = "local_waterfill"

    def __post_init__(self) -> None:
        if self.recompute_interval_ns < 0:
            raise CongestionControlError(
                f"recompute interval must be >= 0, got {self.recompute_interval_ns}"
            )
        if self.initial_rate_policy not in (
            "local_waterfill",
            "mean_allocated",
            "line_rate",
        ):
            raise CongestionControlError(
                f"unknown initial_rate_policy {self.initial_rate_policy!r}"
            )


@dataclass
class RecomputeStats:
    """Wall-clock accounting of one rate recomputation (Figure 8).

    Attributes:
        duration_ns: Wall-clock cost of the epoch.  When the table contents
            were already filled — by the arrival that preceded the epoch, or
            by another node sharing the allocation memo — this is the cost
            of a lookup, not of a water-fill.
        skipped: True when the epoch was short-circuited because the flow
            table had not changed since the last allocation — the recorded
            duration is then just the cost of the generation check.
    """

    at_ns: int
    n_flows: int
    duration_ns: int
    interval_ns: int
    skipped: bool = False

    @property
    def cpu_overhead(self) -> float:
        """Fraction of the interval spent recomputing; > 1 is infeasible."""
        if self.interval_ns <= 0:
            return float("inf") if self.duration_ns else 0.0
        return self.duration_ns / self.interval_ns


class RateController:
    """One node's congestion-control brain.

    The controller is deliberately independent of the simulator: the
    simulator, the Maze emulator and the plain library API all drive the
    same object, which is what makes the Figure 7 cross-validation a check
    of two data planes rather than two control planes.

    A fill's row order, weight matrix and weights change only with the
    table's membership (:attr:`FlowTable.membership_generation`), so the
    controller keeps the :class:`~repro.congestion.waterfill.FillLevel` of
    its last fill while that generation stands: a demand-only epoch reads
    the new demands and refills it, without a snapshot, row keys or matrix
    lookup.  The level is O(rows) — ids and weights, plus a reference to
    the provider's matrix — and a membership event drops it, so idle
    controllers of a per-node rack pin no matrix.

    Other nodes' announcements are not applied as they arrive: they are
    appended to :attr:`journal`, and every read of the controller (the
    table, the allocation, a recompute, a rate, a local event) first
    settles the journal into the table with :meth:`FlowTable.settle`,
    which leaves it exactly as applying each event on arrival would.  A
    per-node rack learns every flow's start and finish at every node, and
    most pairs reach a node between two of its reads: settled together,
    they cancel without touching the table.
    """

    def __init__(
        self,
        topology: Topology,
        node: NodeId,
        provider: Optional[WeightProvider] = None,
        config: Optional[ControllerConfig] = None,
        allocation_cache: Optional[BoundedLru] = None,
        telemetry=None,
    ) -> None:
        self._topology = topology
        self._node = node
        self._provider = provider if provider is not None else WeightProvider(topology)
        self._config = config or ControllerConfig()
        # Telemetry instruments, resolved once; an absent sink leaves them
        # None, so the epoch path pays one ``is not None`` test each (see
        # repro.telemetry).  Epoch trace events carry only simulated-time
        # quantities — wall-clock durations stay in RecomputeStats so
        # traces are byte-identical across equally seeded runs.
        registry = telemetry.metrics if telemetry is not None else None
        self._trace = telemetry.trace if telemetry is not None else None
        self._ctr_recomputed = self._ctr_skipped = self._gauge_flows = None
        if registry is not None:
            self._ctr_recomputed = registry.counter(
                "controller.epochs", outcome="recomputed"
            )
            self._ctr_skipped = registry.counter("controller.epochs", outcome="skipped")
            self._gauge_flows = registry.gauge("controller.table_flows")
        # Allocation memo keyed by table contents.  Rack nodes with
        # identical tables compute identical allocations, so simulations
        # running one controller per node pass a shared LRU and pay for each
        # distinct water-fill once; a controller on its own remembers its
        # last fill, so the epoch after an arrival's fill is a lookup.
        self._allocation_cache = (
            allocation_cache if allocation_cache is not None else BoundedLru(1)
        )
        self._table = FlowTable()
        #: learned ``(event, data)`` announcements the table has not applied
        #: yet; settled at the next read, cleared in place (never replaced)
        self._journal: List[tuple] = []
        self._allocation: Optional[RateAllocation] = None
        self._allocated_generation = -1
        self._known_at_last_epoch: set = set()
        #: table membership generation _known_at_last_epoch was taken at
        self._known_membership = -1
        #: the last fill's level and the membership generation it is valid
        #: for (None after a membership event, or for a multi-priority table)
        self._level: Optional[FillLevel] = None
        self._level_membership = -1
        #: rates pinned by sender-local computation at flow start
        #: (the "local_waterfill" policy); cleared at every epoch.
        self._young_rates: Dict[FlowId, float] = {}
        self._next_epoch_ns = self._config.recompute_interval_ns
        self._stats: List[RecomputeStats] = []

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def node(self) -> NodeId:
        """The node this controller runs on."""
        return self._node

    @property
    def config(self) -> ControllerConfig:
        """The controller's configuration."""
        return self._config

    @property
    def table(self) -> FlowTable:
        """The node's view of the rack traffic matrix."""
        if self._journal:
            self._settle()
        return self._table

    @property
    def journal(self) -> List[tuple]:
        """Other nodes' announced ``(event, data)`` not yet in :attr:`table`.

        Deliverers append to it (see :meth:`on_broadcast`); it is settled
        at the next read and cleared in place, so a bound
        ``journal.append`` resolved once stays valid.  At ρ = 0 a start or
        finish owes an immediate recompute, which :meth:`on_broadcast`
        pays and a bare append does not.
        """
        return self._journal

    def _settle(self) -> None:
        """Apply the journal to the table; a membership move drops the kept
        level, as an eager learned start or finish does."""
        table = self._table
        membership = table.membership_generation
        table.settle(self._journal)
        if table.membership_generation != membership:
            self._level = None

    @property
    def provider(self) -> WeightProvider:
        """The shared link-weight cache."""
        return self._provider

    @property
    def allocation(self) -> Optional[RateAllocation]:
        """The most recent allocation, or ``None`` before the first epoch."""
        if self._journal:
            self._settle()
        return self._allocation

    @property
    def stats(self) -> List[RecomputeStats]:
        """Per-recomputation wall-clock statistics."""
        return self._stats

    def initial_rate_bps(self) -> float:
        """The rate cap granted to flows before their first epoch."""
        if self._journal:
            self._settle()
        capacity = self._topology.capacity_bps
        if (
            self._config.initial_rate_policy == "mean_allocated"
            and self._allocation is not None
            and self._allocation.rates_bps
        ):
            rates = self._allocation.rates_bps.values()
            return min(capacity, sum(rates) / len(rates))
        return capacity

    # ------------------------------------------------------------------
    # Control-plane events (driven by broadcast receipt or local flows)
    # ------------------------------------------------------------------
    def on_flow_started(self, spec: FlowSpec, now_ns: int = 0) -> None:
        """Record the start of a flow this controller rate-limits."""
        if self._journal:
            self._settle()
        self._table.add(spec)
        self._level = None
        if self._config.recompute_interval_ns == 0:
            self.recompute(now_ns)
        elif self._config.initial_rate_policy == "local_waterfill":
            # §3.1: the sender computes the new flow's fair allocation right
            # away; the batched epoch will true everything up later.
            allocation = self._cached_waterfill()
            self._young_rates[spec.flow_id] = allocation.rates_bps[spec.flow_id]

    def on_flow_learned(self, spec: FlowSpec, now_ns: int = 0) -> None:
        """Record a flow this node does not rate-limit: another node's
        start, or a §3.2 re-announce.  The spec enters the table without
        the young-flow admission (only the sender pins a young rate)."""
        if self._journal:
            self._settle()
        self._table.add(spec)
        self._level = None
        if self._config.recompute_interval_ns == 0:
            self.recompute(now_ns)

    def on_flow_finished(self, flow_id: FlowId, now_ns: int = 0) -> None:
        """Record a flow finish (local or learned by broadcast)."""
        if self._journal:
            self._settle()
        self._table.remove(flow_id)
        self._level = None
        self._young_rates.pop(flow_id, None)
        if self._config.recompute_interval_ns == 0:
            self.recompute(now_ns)

    def on_demand_update(self, flow_id: FlowId, demand_bps: float) -> None:
        """Record a demand-update broadcast."""
        if self._journal:
            self._settle()
        self._table.update_demand(flow_id, demand_bps)

    def on_protocol_update(self, flow_id: FlowId, protocol: str) -> None:
        """Record a routing-reassignment broadcast (§3.4)."""
        if self._journal:
            self._settle()
        self._table.update_protocol(flow_id, protocol)
        self._level = None

    def on_broadcast(self, event: int, data, now_ns: int = 0) -> None:
        """Journal another node's announced ``(event, data)`` (see
        :attr:`journal`).  At ρ = 0 a start or finish recomputes at once,
        as an eager write did, so the per-event epochs are unchanged; an
        unknown event raises there, at ρ > 0 at the next read."""
        self._journal.append((event, data))
        if self._config.recompute_interval_ns == 0 and event != EVENT_DEMAND_UPDATE:
            self.recompute(now_ns)

    # ------------------------------------------------------------------
    # Rate computation
    # ------------------------------------------------------------------
    def next_epoch_ns(self) -> int:
        """Absolute time of the next scheduled recomputation."""
        return self._next_epoch_ns

    def maybe_recompute(self, now_ns: int) -> Optional[RateAllocation]:
        """Run the periodic recomputation if an epoch boundary passed."""
        if self._journal:
            self._settle()
        if now_ns < self._next_epoch_ns:
            return None
        interval = max(self._config.recompute_interval_ns, 1)
        # Skip ahead over idle epochs instead of looping through them.
        missed = (now_ns - self._next_epoch_ns) // interval + 1
        self._next_epoch_ns += missed * interval
        return self.recompute(now_ns)

    def recompute(self, now_ns: int) -> RateAllocation:
        """Water-fill over the node's current view; records wall-clock cost.

        An epoch where the flow table's generation is unchanged since the
        last allocation is short-circuited: nothing a water-fill reads has
        moved, so the previous allocation is returned and a zero-cost
        :class:`RecomputeStats` (``skipped=True``) is recorded.  The journal
        settles before the clock starts: its cost is the table's, as an
        eager write's was.
        """
        if self._journal:
            self._settle()
        started = time.perf_counter_ns()
        if (
            self._allocation is not None
            and self._table.generation == self._allocated_generation
        ):
            # _young_rates is necessarily empty here: pinning one requires a
            # table.add(), which would have bumped the generation.
            self._stats.append(
                RecomputeStats(
                    at_ns=now_ns,
                    n_flows=len(self._table),
                    duration_ns=time.perf_counter_ns() - started,
                    interval_ns=self._config.recompute_interval_ns,
                    skipped=True,
                )
            )
            if self._ctr_skipped is not None:
                self._ctr_skipped.inc()
            if self._trace is not None:
                self._trace.instant(
                    "epoch",
                    "controller",
                    now_ns,
                    tid=TRACK_CONTROLLER,
                    args={
                        "outcome": "skipped",
                        "n_flows": len(self._table),
                        "node": self._node,
                    },
                )
            return self._allocation
        table = self._table
        allocation = self._cached_waterfill()
        duration = time.perf_counter_ns() - started
        n_flows = len(table)
        self._allocation = allocation
        self._allocated_generation = table.generation
        if self._known_membership != table.membership_generation:
            self._known_at_last_epoch = set(table.flow_ids())
            self._known_membership = table.membership_generation
        self._young_rates.clear()
        self._stats.append(
            RecomputeStats(
                at_ns=now_ns,
                n_flows=n_flows,
                duration_ns=duration,
                interval_ns=self._config.recompute_interval_ns,
            )
        )
        if self._ctr_recomputed is not None:
            self._ctr_recomputed.inc()
            self._gauge_flows.set(n_flows)
        if self._trace is not None:
            self._trace.instant(
                "epoch",
                "controller",
                now_ns,
                tid=TRACK_CONTROLLER,
                args={
                    "outcome": "recomputed",
                    "n_flows": n_flows,
                    "node": self._node,
                },
            )
        return allocation

    def _effective_capacities(self):
        """The headroom-adjusted capacity vector: one read-only array per
        (topology, headroom), shared by every node's controller through
        :attr:`~repro.topology.base.Topology.derived`."""
        derived = self._topology.derived
        key = ("effective-capacities", self._config.headroom)
        cap = derived.get(key)
        if cap is None:
            cap = derived[key] = effective_capacities(
                self._topology, self._config.headroom
            )
            cap.flags.writeable = False
        return cap

    def _cached_waterfill(self) -> RateAllocation:
        """Water-fill of the table, memoized on the table contents.

        The memo key is O(1): the table's order-independent content
        fingerprint plus the headroom.  Controllers on different nodes whose
        broadcast views agree therefore share one fill per distinct traffic
        matrix, without hashing an O(n) tuple of specs per epoch.  The
        headroom-adjusted capacity vector is likewise computed once and
        passed straight through (``headroom=0.0``), which is mathematically
        identical to recomputing it per fill.  A miss whose table membership
        is the one the kept level was built at refills that level; any
        other miss fills a snapshot and keeps its level (none when the
        table spans several priorities: those fills group it as
        :func:`waterfill` does).
        """
        table = self._table
        key = (self._config.headroom,) + table.content_key
        allocation = self._allocation_cache.get(key)
        if allocation is None:
            level = self._level
            if level is not None and self._level_membership == table.membership_generation:
                flows = table.specs(level.flow_ids)
            else:
                flows = table.snapshot()
                one_level = flows and len({spec.priority for spec in flows}) == 1
                level = FillLevel.build(flows, self._provider) if one_level else None
                self._level = level
                self._level_membership = table.membership_generation
            allocation = waterfill(
                self._topology,
                flows,
                self._provider,
                headroom=0.0,
                capacities=self._effective_capacities(),
                level=level,
            )
            self._allocation_cache[key] = allocation
        return allocation

    def rate_for(self, flow_id: FlowId) -> float:
        """The sending rate currently enforced for *flow_id*.

        Young flows (not yet covered by an epoch) get the initial rate; all
        others get their allocated share, additionally clipped at their
        announced demand.
        """
        if self._journal:
            self._settle()
        spec = self._table.get(flow_id)
        if spec is None:
            raise CongestionControlError(f"unknown flow {flow_id}")
        if (
            self._allocation is None
            or flow_id not in self._known_at_last_epoch
            or flow_id not in self._allocation.rates_bps
        ):
            pinned = self._young_rates.get(flow_id)
            if pinned is not None:
                return min(pinned, spec.demand_bps)
            return min(self.initial_rate_bps(), spec.demand_bps)
        return min(self._allocation.rates_bps[flow_id], spec.demand_bps)

    def local_rates(self) -> Dict[FlowId, float]:
        """Rates for the flows this node itself is sending."""
        if self._journal:
            self._settle()
        return {
            spec.flow_id: self.rate_for(spec.flow_id)
            for spec in self._table.flows_from(self._node)
        }
