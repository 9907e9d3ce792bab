"""Runtime invariant auditor for the packet simulator.

The auditor is a passive subscriber of the simulator's probe
(:mod:`repro.sim.probe`), which feeds it facts from three layers:

* the :class:`~repro.sim.engine.EventLoop` — checks that the simulation
  clock never moves backwards and that events sharing a timestamp execute
  in scheduling order (FIFO causality);
* the :class:`~repro.sim.network.RackNetwork` and its output ports — checks
  packet and byte conservation per port, that no port ever serializes two
  packets concurrently (which is exactly what "load above line rate" would
  look like in this simulator), and that every propagated packet eventually
  arrives;
* the host stacks and the control plane — checks monotone flow completion
  (received bytes never shrink, completion is set exactly once and never
  before the flow started) and that every rate allocation the control plane
  produces respects headroom-adjusted link capacities.

A run without ``SimConfig(audit=True)`` has no auditor (and, unless another
subscriber is on, no probe); the instrumented code then pays one ``is not
None`` branch per site, which is noise next to the work each event
performs.  A constructed auditor can also be paused with :attr:`enabled`.

In ``strict`` mode (default) any violation raises
:class:`~repro.errors.InvariantViolation` at the point of detection; in
collecting mode violations accumulate in :attr:`violations` for later
inspection, which tests use to assert that a deliberately injected bug *is*
caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import InvariantViolation
from ..types import NodeId

#: Relative tolerance for capacity checks (floating-point dust from the
#: allocator's incremental updates must not read as an overload).
_CAP_REL_TOL = 1e-6


@dataclass
class _PortAudit:
    """Conservation counters for one output port."""

    accepted: int = 0
    rejected: int = 0
    started: int = 0
    finished: int = 0
    wire_lost: int = 0
    bytes_accepted: int = 0
    bytes_started: int = 0
    #: absolute time the in-progress serialization ends; transmissions that
    #: overlap this window would imply the link ran above line rate.
    tx_busy_until: int = 0
    busy_ns: int = 0


@dataclass
class AuditReport:
    """Summary of everything an auditor observed during a run."""

    events: int = 0
    packets_accepted: int = 0
    packets_rejected: int = 0
    packets_propagated: int = 0
    packets_arrived: int = 0
    packets_delivered: int = 0
    packets_wire_lost: int = 0
    allocations_audited: int = 0
    flow_checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations


class InvariantAuditor:
    """Machine-checks the simulator's structural invariants at runtime."""

    def __init__(self, strict: bool = True, telemetry=None) -> None:
        self.strict = strict
        self.enabled = True
        self.violations: List[str] = []
        self._loop = None
        self._network = None
        #: optional crash flight recorder (repro.obs.flight); every
        #: violation is recorded to the "auditor" ring before strict mode
        #: raises, so the dump attached to the crash includes it.
        self.flight = None
        # Telemetry sinks (repro.telemetry): violations become a counter
        # and trace instants so an audited run's anomalies line up with
        # the epoch/broadcast/link timeline.  Falsy when telemetry is off.
        if telemetry is not None:
            self._ctr_violations = (
                telemetry.metrics.counter("validation.violations") or None
            )
            self._tel_trace = telemetry.trace or None
        else:
            self._ctr_violations = None
            self._tel_trace = None
        # Event-loop causality state.
        self._last_at_ns = -1
        self._last_prio = 0
        self._last_seq = -1
        self._events = 0
        # Port conservation state.
        self._ports: Dict[Tuple[NodeId, NodeId], _PortAudit] = {}
        # Network-wide packet accounting.
        self._propagated = 0
        self._arrived = 0
        self._delivered = 0
        self._rejected = 0
        # Flow monotonicity state: flow_id -> (bytes_received, completed_ns).
        self._flow_state: Dict[int, Tuple[int, Optional[int]]] = {}
        self._flow_checks = 0
        self._allocations = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach_network(self, network) -> None:
        """Called (via the probe) when a
        :class:`~repro.sim.network.RackNetwork` finishes construction;
        *network*'s event loop becomes the auditor's clock."""
        self._network = network
        self._loop = network._loop

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self._ctr_violations:
            self._ctr_violations.inc()
        if self._tel_trace:
            from ..telemetry.trace import TRACK_VALIDATION

            self._tel_trace.instant(
                "violation",
                "validation",
                self._loop.now if self._loop is not None else 0,
                tid=TRACK_VALIDATION,
                args={"message": message},
            )
        if self.flight is not None:
            self.flight.record(
                "auditor",
                "violation",
                self._loop.now if self._loop is not None else 0,
                message=message,
            )
        if self.strict:
            raise InvariantViolation(message)

    # ------------------------------------------------------------------
    # Event-loop hook
    # ------------------------------------------------------------------
    def on_event(self, at_ns: int, prio: int, seq: int) -> None:
        """One event is about to execute at *at_ns* with key (*prio*, *seq*).

        Same-instant events must execute in ascending ``(priority,
        sequence)`` order: priority is the engine's deterministic
        content-based tie-break (packet deliveries carry their link's
        identity), and the FIFO sequence number orders events of equal
        priority by scheduling time.
        """
        if not self.enabled:
            return
        self._events += 1
        if at_ns < self._last_at_ns:
            self._violate(
                f"clock moved backwards: event at {at_ns} ns after {self._last_at_ns} ns"
            )
        elif at_ns == self._last_at_ns and (prio, seq) <= (
            self._last_prio,
            self._last_seq,
        ):
            self._violate(
                f"FIFO causality broken at t={at_ns} ns: key ({prio}, {seq}) "
                f"executed after ({self._last_prio}, {self._last_seq})"
            )
        self._last_at_ns = at_ns
        self._last_prio = prio
        self._last_seq = seq

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------
    def _port(self, port) -> _PortAudit:
        audit = self._ports.get((port.src, port.dst))
        if audit is None:
            audit = _PortAudit()
            self._ports[(port.src, port.dst)] = audit
        return audit

    def on_port_send(self, port, packet, accepted: bool) -> None:
        """A packet was offered to a port's queue."""
        if not self.enabled:
            return
        audit = self._port(port)
        if accepted:
            audit.accepted += 1
            audit.bytes_accepted += packet.size_bytes
        else:
            audit.rejected += 1
            self._rejected += 1
        occupancy = port.queue.occupancy_bytes
        if occupancy < 0:
            self._violate(
                f"port {port.src}->{port.dst}: negative queue occupancy {occupancy}"
            )

    def on_transmit_start(self, port, packet, duration_ns: int) -> None:
        """A port began serializing a packet for *duration_ns*."""
        if not self.enabled:
            return
        audit = self._port(port)
        audit.started += 1
        audit.bytes_started += packet.size_bytes
        audit.busy_ns += duration_ns
        if self._loop is None:
            return  # no clock to check serialization windows against
        now = self._loop.now
        if now < audit.tx_busy_until:
            self._violate(
                f"port {port.src}->{port.dst}: serialization overlap at {now} ns "
                f"(previous transmission runs until {audit.tx_busy_until} ns) — "
                f"link driven above line rate"
            )
        audit.tx_busy_until = now + duration_ns
        if audit.busy_ns > now + duration_ns:
            self._violate(
                f"port {port.src}->{port.dst}: cumulative busy time "
                f"{audit.busy_ns} ns exceeds elapsed time {now + duration_ns} ns"
            )

    def on_wire_loss(self, port, packet) -> None:
        """A packet that started serializing is corrupted on the wire."""
        if not self.enabled:
            return
        audit = self._port(port)
        audit.finished += 1
        audit.wire_lost += 1

    def on_propagate(self, port, packet, finish_ns: int) -> None:
        """A packet that started serializing finishes at *finish_ns* and
        then propagates."""
        if not self.enabled:
            return
        audit = self._port(port)
        audit.finished += 1
        self._propagated += 1
        if self._loop is not None and finish_ns != audit.tx_busy_until:
            self._violate(
                f"port {port.src}->{port.dst}: packet propagates from {finish_ns} ns "
                f"but its serialization ends at {audit.tx_busy_until} ns"
            )

    def on_arrive(self, node: NodeId, packet) -> None:
        """A packet finished propagating to *node*."""
        if not self.enabled:
            return
        self._arrived += 1

    def on_local_deliver(self, node: NodeId, packet) -> None:
        """A packet was handed to the host stack at *node*."""
        if not self.enabled:
            return
        self._delivered += 1

    # ------------------------------------------------------------------
    # Stack / flow hooks
    # ------------------------------------------------------------------
    def on_flow_progress(self, flow, now_ns: int) -> None:
        """Receiver-side progress: received bytes and completion must be
        monotone, and completion can only be declared once."""
        if not self.enabled:
            return
        self._flow_checks += 1
        prev = self._flow_state.get(flow.flow_id)
        if prev is not None:
            prev_bytes, prev_completed = prev
            if flow.bytes_received < prev_bytes:
                self._violate(
                    f"flow {flow.flow_id}: received bytes shrank "
                    f"{prev_bytes} -> {flow.bytes_received}"
                )
            if prev_completed is not None and flow.completed_ns != prev_completed:
                self._violate(
                    f"flow {flow.flow_id}: completion time changed "
                    f"{prev_completed} -> {flow.completed_ns}"
                )
        if flow.completed_ns is not None and flow.completed_ns < flow.start_ns:
            self._violate(
                f"flow {flow.flow_id}: completed at {flow.completed_ns} ns "
                f"before it started at {flow.start_ns} ns"
            )
        self._flow_state[flow.flow_id] = (flow.bytes_received, flow.completed_ns)

    # ------------------------------------------------------------------
    # Control-plane hook
    # ------------------------------------------------------------------
    def audit_allocation(self, allocation) -> None:
        """Check one :class:`~repro.congestion.waterfill.RateAllocation`:
        non-negative finite rates, and per-link load within the
        headroom-adjusted capacity the fill was given."""
        if not self.enabled or allocation is None:
            return
        self._allocations += 1
        for flow_id, rate in allocation.rates_bps.items():
            if rate < 0 or not math.isfinite(rate):
                self._violate(f"flow {flow_id}: allocated invalid rate {rate}")
        load = allocation.link_load_bps
        cap = allocation.link_capacity_bps
        for link in range(load.size):
            limit = cap[link] * (1.0 + _CAP_REL_TOL) + 1e-3
            if load[link] > limit:
                self._violate(
                    f"link {link}: allocated load {load[link]:.6g} bps exceeds "
                    f"headroom-adjusted capacity {cap[link]:.6g} bps"
                )

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def check_conservation(self, drained: bool = True, check_transit: bool = True) -> None:
        """Packet conservation: every packet offered to a port is either
        rejected, still queued, in serialization, wire-lost or propagated;
        with a drained event loop, every propagated packet arrived.

        ``check_transit=False`` skips the propagated-equals-arrived check:
        a shard of a sharded run legitimately propagates packets that
        arrive in *another* shard's auditor, so the transit check only
        holds on the summed counters (see :func:`merge_audit_reports`).
        """
        if not self.enabled:
            return
        now = self._loop.now if self._loop is not None else 0
        for (src, dst), audit in self._ports.items():
            port = self._network.port(src, dst) if self._network is not None else None
            queued = len(port.queue) if port is not None else 0
            in_service = 1 if (port is not None and port.busy) else 0
            if audit.accepted != audit.started + queued:
                self._violate(
                    f"port {src}->{dst}: conservation broken — accepted "
                    f"{audit.accepted} != started {audit.started} + queued {queued}"
                )
            # A transmission's outcome is reported as it starts: the one
            # still on the wire (by the auditor's own clock) is not finished.
            finished = audit.finished - (audit.tx_busy_until > now)
            if audit.started != finished + in_service:
                self._violate(
                    f"port {src}->{dst}: conservation broken — started "
                    f"{audit.started} != finished {finished} + in-service {in_service}"
                )
        if check_transit and drained and self._propagated != self._arrived:
            self._violate(
                f"packet conservation broken: {self._propagated} packets entered "
                f"propagation but {self._arrived} arrived"
            )

    def audit_flows(self, flows) -> None:
        """Final flow-state sanity: byte accounting within bounds and
        completion implying full delivery."""
        if not self.enabled:
            return
        for flow in flows:
            self._flow_checks += 1
            if flow.bytes_sent > flow.size_bytes:
                self._violate(
                    f"flow {flow.flow_id}: sender transmitted {flow.bytes_sent} "
                    f"of {flow.size_bytes} bytes"
                )
            if flow.completed_ns is not None:
                if flow.bytes_received < flow.size_bytes:
                    self._violate(
                        f"flow {flow.flow_id}: completed with only "
                        f"{flow.bytes_received} of {flow.size_bytes} bytes"
                    )
                if flow.completed_ns < flow.start_ns:
                    self._violate(
                        f"flow {flow.flow_id}: completed at {flow.completed_ns} ns "
                        f"before start at {flow.start_ns} ns"
                    )

    def final_check(
        self, flows=None, drained: bool = True, check_transit: bool = True
    ) -> AuditReport:
        """Run all end-of-run checks and return the :class:`AuditReport`."""
        self.check_conservation(drained=drained, check_transit=check_transit)
        if flows is not None:
            self.audit_flows(flows)
        return self.report()

    def report(self) -> AuditReport:
        """The current counters and collected violations."""
        return AuditReport(
            events=self._events,
            packets_accepted=sum(a.accepted for a in self._ports.values()),
            packets_rejected=self._rejected,
            packets_propagated=self._propagated,
            packets_arrived=self._arrived,
            packets_delivered=self._delivered,
            packets_wire_lost=sum(a.wire_lost for a in self._ports.values()),
            allocations_audited=self._allocations,
            flow_checks=self._flow_checks,
            violations=list(self.violations),
        )


def merge_audit_reports(
    reports, flows=None, drained: bool = True, strict: bool = True
) -> AuditReport:
    """Combine per-shard :class:`AuditReport`\\ s into one run-level report.

    Each shard audits its own slice with ``check_transit=False`` (a cut
    port's propagated packets arrive in another shard's auditor); this
    helper sums the counters, keeps the violations in shard order, and runs
    the two checks only the whole run can answer: propagated-equals-arrived
    over the summed counters, and the final per-flow byte/completion audit
    over the merged flow states.  With ``strict`` the first run-level
    violation raises :class:`~repro.errors.InvariantViolation`, matching a
    serial ``audit_strict`` run (per-shard violations already raised inside
    their shard).
    """
    merged = AuditReport()
    for report in reports:
        merged.events += report.events
        merged.packets_accepted += report.packets_accepted
        merged.packets_rejected += report.packets_rejected
        merged.packets_propagated += report.packets_propagated
        merged.packets_arrived += report.packets_arrived
        merged.packets_delivered += report.packets_delivered
        merged.packets_wire_lost += report.packets_wire_lost
        merged.allocations_audited += report.allocations_audited
        merged.flow_checks += report.flow_checks
        merged.violations.extend(report.violations)
    checker = InvariantAuditor(strict=strict)
    checker.violations = merged.violations  # shared list: _violate appends here
    if drained and merged.packets_propagated != merged.packets_arrived:
        checker._violate(
            f"packet conservation broken: {merged.packets_propagated} packets "
            f"entered propagation but {merged.packets_arrived} arrived"
        )
    if flows is not None:
        checker.audit_flows(flows)
        merged.flow_checks += checker._flow_checks
    return merged
