"""Causal critical-path tracing: *why* was this flow's FCT what it was?

The simulator can already say what a flow's FCT was; this module threads
cause links through the engine's events so it can say where the time went.
Every data packet carries an optional :class:`PacketObs` record stamped at
each causal transition — enqueue → dequeue (queueing), dequeue → transmit
finish (serialization), transmit finish → arrival (propagation) — and the
sender-side :class:`ObsSession` accounts the waits that are not packet
residence at all: control-plane stalls (allocated rate 0 until the next
epoch), host-limited waits (the application has not produced the bytes)
and retransmission-timer waits (reliable transport).

The decomposition is **exact by construction**.  Forwarding in
:mod:`repro.sim.network` is instantaneous (an arrival increments the hop
and enqueues on the next port at the same instant), so for the packet that
completes a flow::

    completed_ns - inject_ns == queue_ns + ser_ns + prop_ns      (exactly)

and the sender side tiles into disjoint intervals — every gap between
``start_ns`` and ``inject_ns`` is exactly one of {token-bucket pacing,
control-wait, host-wait, RTO-wait}; pacing is recovered as the remainder::

    pacing_ns = inject_ns - start_ns - ctl_ns - host_ns - rto_ns

so the six components always sum to the measured FCT with **zero** error.
(The CLI and tests still phrase the gate as ±1 ns per the acceptance
criterion; the construction owes 0.)

All quantities are integer simulated nanoseconds — no wall clock — so the
decomposition of a sharded run is byte-identical to the serial run's:
``PacketObs`` crosses shard boundaries on its packet, sender-side
cumulative waits travel *on* the packet as injection-time snapshots, and
completion-side assembly happens wherever the destination node lives.

Overhead discipline: nothing here touches a default-path simulation.  The
session is only constructed when ``SimConfig(obs=True)``, and the network
and stacks reach it only through their probe (:mod:`repro.sim.probe`), which
is ``None`` on a default run — one falsy test per site, inside the ≤2%
disabled-overhead gate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["PacketObs", "ObsSession", "COMPONENT_NAMES"]

#: The causal components every decomposition reports, in display order.
#: ``pacing_ns`` is sender-side residence (token-bucket serialization at
#: the allocated rate for R2C2; ACK-clocked sending for TCP);
#: ``serialization_ns`` is per-hop wire transmission time.
COMPONENT_NAMES = (
    "pacing_ns",
    "serialization_ns",
    "queueing_ns",
    "propagation_ns",
    "control_wait_ns",
    "host_wait_ns",
    "retransmit_wait_ns",
)


class PacketObs:
    """Per-packet causal record, carried on ``SimPacket.obs``.

    ``ctl_ns`` / ``host_ns`` / ``rto_ns`` are snapshots of the flow's
    cumulative sender-side waits at injection time (the completing packet
    may not be the last-injected one, so per-flow cumulative counters
    alone would over-count); the remaining fields accumulate along the
    packet's network path.
    """

    __slots__ = (
        "inject_ns",
        "ctl_ns",
        "host_ns",
        "rto_ns",
        "enq_ns",
        "queue_ns",
        "ser_ns",
        "prop_ns",
        "last_finish_ns",
        "hops",
    )

    def __init__(self, inject_ns: int, ctl_ns: int, host_ns: int, rto_ns: int) -> None:
        self.inject_ns = inject_ns
        self.ctl_ns = ctl_ns
        self.host_ns = host_ns
        self.rto_ns = rto_ns
        #: enqueue timestamp at the port the packet currently waits in.
        self.enq_ns = inject_ns
        self.queue_ns = 0
        self.ser_ns = 0
        self.prop_ns = 0
        #: transmission-finish time at the last hop, stamped as it starts
        #: (propagation is accounted receiver-side: arrival - last finish,
        #: which is what makes zero-latency cut ports correct across shards).
        self.last_finish_ns: Optional[int] = None
        #: per-hop queueing record: (src, dst, queue_wait_ns).
        self.hops: List[Tuple[int, int, int]] = []

    # Causal transitions along the network path, stamped by the probe's
    # port/network sites (repro.sim.probe).
    def tx_started(self, now_ns: int, duration_ns: int, src: int, dst: int) -> None:
        """Port src -> dst dequeued the packet and began serializing it."""
        wait = now_ns - self.enq_ns
        self.queue_ns += wait
        self.ser_ns += duration_ns
        self.hops.append((src, dst, wait))

    def arrived(self, now_ns: int) -> None:
        """Receiver-side propagation accounting: exact for cut ports too,
        whose local latency is zero (the true latency is baked into the
        boundary arrival time)."""
        if self.last_finish_ns is not None:
            self.prop_ns += now_ns - self.last_finish_ns


class _SenderObs:
    """Cumulative sender-side wait accounting for one flow."""

    __slots__ = ("ctl_ns", "host_ns", "rto_ns", "stall_since")

    def __init__(self) -> None:
        self.ctl_ns = 0
        self.host_ns = 0
        self.rto_ns = 0
        #: set while the flow sits in a rate<=0 stall (cleared on resume).
        self.stall_since: Optional[int] = None


class ObsSession:
    """One simulation's causal-tracing state (sender + completion sides).

    In a sharded run each shard owns a session; sender-side state lives in
    the source node's shard, completion records in the destination node's
    shard, and the coordinator merges the (disjoint) completion maps.
    """

    #: Queueing culprits :meth:`results` keeps per flow.
    TOP_K = 5

    def __init__(self) -> None:
        self._senders: Dict[int, _SenderObs] = {}
        #: flow_id -> finished decomposition dict (see :meth:`results`).
        self.completed: Dict[int, dict] = {}
        #: flow_id -> {(src, dst): [queue_ns, packets]} over *all*
        #: delivered data packets (not just the completing one).
        self._hop_queue: Dict[int, Dict[Tuple[int, int], List[int]]] = {}

    # ------------------------------------------------------------------
    # Sender side (called from the host stacks)
    # ------------------------------------------------------------------
    def _sender(self, flow_id: int) -> _SenderObs:
        sender = self._senders.get(flow_id)
        if sender is None:
            sender = self._senders[flow_id] = _SenderObs()
        return sender

    def on_stall(self, flow_id: int, now_ns: int) -> None:
        """Rate dropped to zero: a control-wait interval (maybe) begins."""
        sender = self._sender(flow_id)
        if sender.stall_since is None:
            sender.stall_since = now_ns

    def on_resume(self, flow_id: int, now_ns: int) -> None:
        """Rate is positive again: close any open control-wait interval."""
        sender = self._sender(flow_id)
        if sender.stall_since is not None:
            sender.ctl_ns += now_ns - sender.stall_since
            sender.stall_since = None

    def on_host_wait(self, flow_id: int, delay_ns: int) -> None:
        """The application is the bottleneck for exactly *delay_ns*."""
        self._sender(flow_id).host_ns += delay_ns

    def on_rto_wait(self, flow_id: int, delay_ns: int) -> None:
        """All outstanding segments are within RTO for exactly *delay_ns*."""
        self._sender(flow_id).rto_ns += delay_ns

    def on_inject(self, flow, packet, now_ns: int) -> None:
        """Stamp a fresh :class:`PacketObs` with injection-time snapshots."""
        sender = self._sender(flow.flow_id)
        packet.obs = PacketObs(now_ns, sender.ctl_ns, sender.host_ns, sender.rto_ns)

    # ------------------------------------------------------------------
    # Completion side (called from the destination stack)
    # ------------------------------------------------------------------
    def on_delivered(self, flow, packet, now_ns: int) -> None:
        """A data packet with an obs record reached its destination stack.

        Aggregates per-hop queueing for the flow and, when this delivery
        is the one that set ``flow.completed_ns``, freezes the flow's
        decomposition from the completing packet's record.
        """
        obs = packet.obs
        hop_map = self._hop_queue.get(flow.flow_id)
        if hop_map is None:
            hop_map = self._hop_queue[flow.flow_id] = {}
        for src, dst, queue_ns in obs.hops:
            cell = hop_map.get((src, dst))
            if cell is None:
                hop_map[(src, dst)] = [queue_ns, 1]
            else:
                cell[0] += queue_ns
                cell[1] += 1
        if flow.completed_ns != now_ns or flow.flow_id in self.completed:
            return
        fct_ns = flow.completed_ns - flow.start_ns
        pacing_ns = (
            obs.inject_ns - flow.start_ns - obs.ctl_ns - obs.host_ns - obs.rto_ns
        )
        self.completed[flow.flow_id] = {
            "flow_id": flow.flow_id,
            "src": flow.src,
            "dst": flow.dst,
            "size_bytes": flow.size_bytes,
            "start_ns": flow.start_ns,
            "inject_ns": obs.inject_ns,
            "completed_ns": flow.completed_ns,
            "fct_ns": fct_ns,
            "components": {
                "pacing_ns": pacing_ns,
                "serialization_ns": obs.ser_ns,
                "queueing_ns": obs.queue_ns,
                "propagation_ns": obs.prop_ns,
                "control_wait_ns": obs.ctl_ns,
                "host_wait_ns": obs.host_ns,
                "retransmit_wait_ns": obs.rto_ns,
            },
            "critical_path": [
                {"src": src, "dst": dst, "queue_ns": queue_ns}
                for src, dst, queue_ns in obs.hops
            ],
        }

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> Dict[int, dict]:
        """Finished decompositions plus per-flow top-K queueing culprits.

        Pure integers and strings throughout, so the dict is JSON-stable
        and byte-identical between serial and sharded executions.
        """
        out: Dict[int, dict] = {}
        for flow_id, record in self.completed.items():
            entry = dict(record)
            hop_map = self._hop_queue.get(flow_id, {})
            ranked = sorted(
                hop_map.items(), key=lambda kv: (-kv[1][0], kv[0])
            )[: self.TOP_K]
            entry["top_queue_hops"] = [
                {
                    "src": src,
                    "dst": dst,
                    "queue_ns": total,
                    "packets": packets,
                }
                for (src, dst), (total, packets) in ranked
            ]
            out[flow_id] = entry
        return out

    @staticmethod
    def merge(results: List[Dict[int, dict]]) -> Dict[int, dict]:
        """Union per-shard completion maps (disjoint by destination)."""
        merged: Dict[int, dict] = {}
        for part in results:
            if part:
                merged.update(part)
        return {flow_id: merged[flow_id] for flow_id in sorted(merged)}


def check_decomposition(record: dict, tolerance_ns: int = 1) -> Optional[str]:
    """Return an error string if *record*'s components do not sum to FCT."""
    total = sum(record["components"].values())
    if abs(total - record["fct_ns"]) > tolerance_ns:
        return (
            f"flow {record['flow_id']}: components sum to {total} ns, "
            f"fct is {record['fct_ns']} ns"
        )
    for name, value in record["components"].items():
        if value < 0:
            return f"flow {record['flow_id']}: component {name} is negative ({value})"
    return None
