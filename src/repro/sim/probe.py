"""The simulator's one observation surface.

Every hot-path class (:class:`~repro.sim.engine.EventLoop`,
:class:`~repro.sim.network.OutputPort`, :class:`~repro.sim.network.RackNetwork`,
the host stacks and the control planes) carries a single ``probe`` that is
``None`` on every default run.  Each observable site is one guarded call,
``if probe is not None: probe.<site>(facts…)``; the :class:`SimProbe`
behind it fans the facts out to whichever of the four subscribers the run
installed:

* the :class:`~repro.validation.InvariantAuditor` (``SimConfig.audit``),
* the :class:`~repro.obs.FlightRecorder` (``SimConfig.flight``),
* the causal :class:`~repro.obs.ObsSession` (``SimConfig.obs``),
* the run's :class:`~repro.telemetry.Telemetry` trace and counters.

The set of sites is fixed and typed — one method per site kind, facts
passed positionally — so the disabled path is one falsy test per site and
there is no registry, event object or string dispatch to pay for when a
subscriber is on.  :func:`build_probe` is the only place subscribers are
constructed and wired, for the serial runner and every shard alike.

To add a subscriber: construct it in :func:`build_probe`, hold it on
:class:`SimProbe`, call it from the site methods whose facts it wants, and
read its result in :meth:`SimProbe.collect` (serial) /
``ShardSim.finalize`` (sharded).  The hot-path classes do not change.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..obs import FlightRecorder, ObsSession
from ..telemetry.trace import TRACK_BROADCAST, TRACK_PACKETS, TRACK_SIM

#: Broadcast event names, in the order their counters are registered.
BROADCAST_EVENTS = ("start", "finish", "demand")


class SimProbe:
    """Fans each hot-path fact out to the installed subscribers."""

    def __init__(
        self, loop, auditor=None, flight=None, obs=None, telemetry=None, r2c2=False
    ) -> None:
        self._loop = loop
        self.auditor = auditor
        self.flight = flight
        self.obs = obs
        #: Engine-event site ``engine_event(at_ns, prio, seq)``, called as
        #: each event is about to execute.  None unless a subscriber needs
        #: every event (not just batches): the event loop then leaves its
        #: hoisted fast path.
        self.engine_event = auditor.on_event if auditor is not None else None
        # ``or None`` collapses disabled (falsy null) sinks so the site
        # methods test None at C speed.
        trace = (telemetry.trace or None) if telemetry is not None else None
        registry = (telemetry.metrics or None) if telemetry is not None else None
        self._trace = trace
        self._batch_trace = (
            trace if trace is not None and telemetry.config.trace_eventloop else None
        )
        self._pkt_sample_every = (
            telemetry.config.packet_sample_every if trace is not None else 0
        )
        # The R2C2 broadcast instruments exist only in r2c2 runs, so other
        # stacks' snapshots do not grow zero-valued broadcast counters.
        self._ctr_announce = self._ctr_wire_bytes = None
        self._ctr_wire_packets = self._ctr_retransmits = None
        if registry is not None and r2c2:
            self._ctr_announce = {
                event: registry.counter("broadcast.announcements", event=event)
                for event in BROADCAST_EVENTS
            }
            self._ctr_wire_bytes = registry.counter("broadcast.wire_bytes")
            self._ctr_wire_packets = registry.counter("broadcast.wire_packets")
            self._ctr_retransmits = registry.counter("broadcast.retransmissions")
        if auditor is not None:
            # Violations land in the "auditor" ring before strict mode
            # raises, so the dump attached to the crash includes them.
            auditor.flight = flight
        loop.attach_probe(self)

    def _record(self, subsystem: str, kind: str, **fields) -> None:
        """One flight-recorder event, stamped with the simulated clock."""
        if self.flight is not None:
            self.flight.record(subsystem, kind, self._loop.now, **fields)

    def _broadcast_instant(self, name: str, **args) -> None:
        """One instant on the trace's broadcast track."""
        if self._trace is not None:
            self._trace.instant(
                name, "broadcast", self._loop.now, tid=TRACK_BROADCAST, args=args
            )

    # ------------------------------------------------------------------
    # Engine sites
    # ------------------------------------------------------------------
    def engine_batch(self, start_ns: int, end_ns: int, processed: int) -> None:
        """A ``run``/``run_batch`` call processed *processed* > 0 events."""
        if self._batch_trace is not None:
            self._batch_trace.complete(
                "batch",
                "eventloop",
                start_ns,
                end_ns - start_ns,
                tid=TRACK_SIM,
                args={"events": processed},
            )
        if self.flight is not None:
            self.flight.record(
                "engine", "batch", end_ns, start_ns=start_ns, events=processed
            )

    # ------------------------------------------------------------------
    # Port and network sites
    # ------------------------------------------------------------------
    def attach_network(self, network) -> None:
        """*network* finished construction (the auditor reads its queues)."""
        if self.auditor is not None:
            self.auditor.attach_network(network)

    def port_accept(self, port, packet) -> None:
        """*port*'s queue accepted *packet*."""
        if self.auditor is not None:
            self.auditor.on_port_send(port, packet, accepted=True)
        if packet.obs is not None:
            packet.obs.enq_ns = self._loop.now

    def port_drop(self, port, packet) -> None:
        """*port*'s queue rejected *packet* (overflow)."""
        if self.auditor is not None:
            self.auditor.on_port_send(port, packet, accepted=False)
        self._record(
            "network", "queue_drop", src=port.src, dst=port.dst,
            flow=packet.flow_id, packet_kind=packet.kind, seq=packet.seq,
        )

    def tx_start(self, port, packet, duration_ns: int) -> None:
        """*port* began serializing *packet* for *duration_ns*."""
        if self.auditor is not None:
            self.auditor.on_transmit_start(port, packet, duration_ns)
        if packet.obs is not None:
            packet.obs.tx_started(self._loop.now, duration_ns, port.src, port.dst)

    def wire_loss(self, port, packet) -> None:
        """*packet* started serializing but is corrupted on the wire."""
        if self.auditor is not None:
            self.auditor.on_wire_loss(port, packet)
        self._record(
            "network", "wire_loss", src=port.src, dst=port.dst,
            flow=packet.flow_id, seq=packet.seq,
        )

    def tx_finish(self, port, packet, finish_ns: int) -> None:
        """*packet* started serializing; it finishes at *finish_ns* and
        then propagates."""
        if self.auditor is not None:
            self.auditor.on_propagate(port, packet, finish_ns)
        if packet.obs is not None:
            packet.obs.last_finish_ns = finish_ns

    def arrive(self, node: int, packet) -> None:
        """*packet* finished propagating to *node*."""
        if self.auditor is not None:
            self.auditor.on_arrive(node, packet)
        if packet.obs is not None:
            packet.obs.arrived(self._loop.now)

    def local_deliver(self, node: int, packet) -> None:
        """*packet* is handed to the host stack at *node*."""
        if self.auditor is not None:
            self.auditor.on_local_deliver(node, packet)

    # ------------------------------------------------------------------
    # Sender-side stack sites
    # ------------------------------------------------------------------
    def flow_start(self, flow) -> None:
        """The source stack starts *flow*."""
        self._record(
            "stack", "flow_start", flow=flow.flow_id, src=flow.src, dst=flow.dst,
            size=flow.size_bytes,
        )

    def inject(self, flow, packet) -> None:
        """A data packet of *flow* is about to enter the network."""
        if self.obs is not None:
            self.obs.on_inject(flow, packet, self._loop.now)

    def pacing(self, flow_id: int, stalled: bool) -> None:
        """The sender consulted the flow's allocated rate: zero (*stalled*
        until the next epoch) or positive (any open stall ends)."""
        if self.obs is not None:
            if stalled:
                self.obs.on_stall(flow_id, self._loop.now)
            else:
                self.obs.on_resume(flow_id, self._loop.now)

    def host_wait(self, flow_id: int, delay_ns: int) -> None:
        """The application is the bottleneck for exactly *delay_ns*."""
        if self.obs is not None:
            self.obs.on_host_wait(flow_id, delay_ns)

    def rto_wait(self, flow_id: int, delay_ns: int) -> None:
        """Every outstanding segment is within its RTO for *delay_ns*."""
        if self.obs is not None:
            self.obs.on_rto_wait(flow_id, delay_ns)

    def tcp_rto(self, flow_id: int, cum_acked: int) -> None:
        """A TCP retransmission timer fired."""
        self._record("stack", "tcp_rto", flow=flow_id, cum_acked=cum_acked)

    # ------------------------------------------------------------------
    # Receiver-side stack sites
    # ------------------------------------------------------------------
    def packet_span(self, packet) -> None:
        """Sampled R2C2 packet lifecycle: injection -> delivery as a span."""
        every = self._pkt_sample_every
        if every and packet.seq % every == 0:
            self._trace.complete(
                f"flow {packet.flow_id}",
                "packet",
                packet.sent_ns,
                self._loop.now - packet.sent_ns,
                tid=TRACK_PACKETS,
                args={"seq": packet.seq, "bytes": packet.size_bytes},
            )

    def flow_complete(self, flow, node: int) -> None:
        """This delivery set ``flow.completed_ns``."""
        self._record("stack", "flow_complete", flow=flow.flow_id, node=node)

    def delivered(self, flow, packet) -> None:
        """The destination stack finished accounting a data packet."""
        if self.obs is not None and packet.obs is not None:
            self.obs.on_delivered(flow, packet, self._loop.now)
        if self.auditor is not None:
            self.auditor.on_flow_progress(flow, self._loop.now)

    # ------------------------------------------------------------------
    # Broadcast sites (R2C2 only)
    # ------------------------------------------------------------------
    def bcast_announce(self, event: str, flow_id: int, node: int, tree_id: int) -> None:
        """*node* broadcasts a start/finish/demand event on *tree_id*."""
        if self._ctr_announce is not None:
            self._ctr_announce[event].inc()
        self._broadcast_instant(
            "announce", event=event, flow=flow_id, node=node, tree=tree_id
        )

    def bcast_retransmit(self, flow_id: int, dropped_at: int, seq: int) -> None:
        """A drop notification made the source re-send broadcast *seq*."""
        if self._ctr_retransmits is not None:
            self._ctr_retransmits.inc()
        self._record(
            "stack", "broadcast_retransmit", flow=flow_id, dropped_at=dropped_at, seq=seq
        )
        self._broadcast_instant(
            "retransmit", flow=flow_id, dropped_at=dropped_at, seq=seq
        )

    def bcast_receipt(self, size_bytes: int) -> None:
        """A broadcast copy that crossed a link reached a node's stack."""
        if self._ctr_wire_bytes is not None:
            self._ctr_wire_bytes.inc(size_bytes)
            self._ctr_wire_packets.inc()

    def reannounce_round(self, node: int, flows: int) -> None:
        """§3.2 recovery: *node* re-broadcast its *flows* ongoing flows."""
        self._broadcast_instant("reannounce_round", node=node, flows=flows)

    # ------------------------------------------------------------------
    # Control-plane sites
    # ------------------------------------------------------------------
    def allocation(self, allocation) -> None:
        """A controller recomputed *allocation* (``None``: nothing yet)."""
        if self.auditor is not None:
            self.auditor.audit_allocation(allocation)

    def control_epoch(self, **fields) -> None:
        """One control epoch finished recomputing (*fields*: its size)."""
        self._record("controller", "epoch", **fields)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def crash_dump(self, exc: BaseException) -> None:
        """Attach the flight dump to a crash so fuzzers and campaign
        runners can preserve the last moments without re-running."""
        if self.flight is not None and not hasattr(exc, "repro_flight"):
            exc.repro_flight = self.flight.dump(reason=f"{type(exc).__name__}: {exc}")

    def collect(self, metrics, flows, drained: bool) -> None:
        """Land every subscriber's result on a serial run's *metrics*."""
        if self.auditor is not None:
            metrics.audit = self.auditor.final_check(flows=flows, drained=drained)
        if self.obs is not None:
            metrics.flow_obs = self.obs.results()
        if self.flight is not None:
            metrics.flight_dump = self.flight.dump()


def build_probe(config, telemetry, loop) -> Optional[SimProbe]:
    """The probe *config* and *telemetry* ask for, attached to *loop*.

    Returns ``None`` when nothing observes the run — no audit, obs or
    flight knob and no (enabled) telemetry — so a disabled ``Telemetry``
    costs exactly what ``telemetry=None`` does.
    """
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    if not (config.audit or config.obs or config.flight or telemetry is not None):
        return None
    if config.obs and config.stack == "pfq":
        raise SimulationError(
            "obs=True does not support stack='pfq': the FCT decomposition "
            "has no term for back-pressure pauses"
        )
    auditor = None
    if config.audit:
        # Imported lazily: repro.validation imports the simulator for its
        # differential oracles, so a top-level import would be circular.
        from ..validation import InvariantAuditor

        auditor = InvariantAuditor(strict=config.audit_strict, telemetry=telemetry)
    return SimProbe(
        loop,
        auditor,
        FlightRecorder() if config.flight else None,
        ObsSession() if config.obs else None,
        telemetry,
        r2c2=config.stack == "r2c2",
    )
