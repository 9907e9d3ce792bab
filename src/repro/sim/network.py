"""The simulated network fabric: output ports, queues, forwarding.

Each directed link is modelled as an *output port* at its sending node: a
queue (discipline pluggable) feeding a transmitter that serializes packets
at line rate, plus the link's propagation latency.  Intermediate nodes
forward data packets by following the path in the packet (source routing,
§3.5) and broadcast packets by the rack-wide broadcast FIB (§3.2) —
exactly the two lookups the paper argues are simple enough for on-chip
implementation.  A broadcast is one packet object: its tree's children
table is looked up once, when the source injects it, and travels as the
packet's ``path``.

A unicast hop is one event: its delivery, scheduled with the link's
priority as serialization starts.  The broadcast copies landing at one
instant are one event, which delivers them in link-priority order and
yields to any queued event of the instant that sorts before the next copy,
so each copy runs exactly where its own delivery event would have.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..broadcast.fib import BroadcastFib
from ..core.seeds import derive_seed
from ..errors import SimulationError
from ..topology.base import Topology
from ..types import NodeId, transmission_time_ns
from .engine import EventLoop
from .packets import KIND_BROADCAST, SimPacket


def link_prio(src: NodeId, dst: NodeId, n_nodes: int) -> int:
    """Event-loop priority of link ``src -> dst``'s delivery events.

    A dense, positive encoding of the link's identity (timer/arrival/epoch
    events keep the default priority 0 and sort first).  Both the serial
    engine and every shard use this same function, which is what makes the
    relative order of same-instant deliveries — the one tie the serial
    engine used to break by global scheduling order — reproducible across
    any sharding of the fabric.
    """
    return 1 + src * n_nodes + dst


#: Priority of a broadcast batch's event: ``link_prio(0, 0, n)``, below every
#: link's (no link joins a node to itself), so the batch runs after the
#: instant's timers and before its first delivery.
BATCH_PRIO = 1


class FifoQueue:
    """Single drop-tail FIFO per port — R2C2's data-plane assumption.

    ``limit_bytes=None`` models the measurement setup of Figures 7b/14
    (unbounded queue, occupancy recorded); a finite limit models
    small-buffer micro-servers and drives TCP's loss-based control.
    """

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        self._queue: Deque[SimPacket] = deque()
        self._bytes = 0
        self._limit = limit_bytes

    def enqueue(self, packet: SimPacket) -> bool:
        if self._limit is not None and self._bytes + packet.size_bytes > self._limit:
            return False
        self._queue.append(packet)
        self._bytes += packet.size_bytes
        return True

    def dequeue(self) -> Optional[SimPacket]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        return packet

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._queue)


class PerFlowRoundRobin:
    """Per-flow queues served round-robin — the idealized PFQ baseline.

    Flows can be *paused* (back-pressure): a paused flow's queue retains its
    packets but is skipped by the scheduler.
    """

    def __init__(self, limit_bytes_per_flow: Optional[int] = None) -> None:
        self._queues: Dict[int, Deque[SimPacket]] = {}
        self._flow_bytes: Dict[int, int] = {}
        self._active: Deque[int] = deque()
        self._paused: set = set()
        self._bytes = 0
        self._limit = limit_bytes_per_flow

    def enqueue(self, packet: SimPacket) -> bool:
        flow = packet.flow_id
        if (
            self._limit is not None
            and self._flow_bytes.get(flow, 0) + packet.size_bytes > self._limit
        ):
            return False
        queue = self._queues.get(flow)
        if queue is None:
            queue = deque()
            self._queues[flow] = queue
            self._flow_bytes[flow] = 0
        if not queue and flow not in self._paused:
            self._active.append(flow)
        queue.append(packet)
        self._flow_bytes[flow] += packet.size_bytes
        self._bytes += packet.size_bytes
        return True

    def dequeue(self) -> Optional[SimPacket]:
        while self._active:
            flow = self._active.popleft()
            queue = self._queues.get(flow)
            if not queue or flow in self._paused:
                continue
            packet = queue.popleft()
            self._flow_bytes[flow] -= packet.size_bytes
            self._bytes -= packet.size_bytes
            if queue:
                self._active.append(flow)
            return packet
        return None

    def pause(self, flow_id: int) -> None:
        """Back-pressure: stop serving this flow's queue."""
        self._paused.add(flow_id)

    def resume(self, flow_id: int) -> None:
        """Lift back-pressure; re-activate the flow if it has packets."""
        if flow_id in self._paused:
            self._paused.discard(flow_id)
            if self._queues.get(flow_id):
                self._active.append(flow_id)

    def flow_occupancy_bytes(self, flow_id: int) -> int:
        """Bytes queued for one flow (back-pressure trigger)."""
        return self._flow_bytes.get(flow_id, 0)

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())


class OutputPort:
    """One directed link's queue and transmitter at its sending node.

    A hop is one event: a transmission schedules its packet's delivery as
    serialization starts, and a finish event (:meth:`_finish`, at the
    instant ``_free_at`` the serialization ends) exists only while a
    packet waits behind it.
    """

    def __init__(
        self,
        loop: EventLoop,
        src: NodeId,
        dst: NodeId,
        capacity_bps: float,
        latency_ns: int,
        queue,
        deliver: Callable[[SimPacket], None],
        on_drop: Optional[Callable[[SimPacket], None]] = None,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        prio: int = 0,
        probe=None,
        land: Optional[Callable[[int, int, NodeId, SimPacket, int], None]] = None,
        batches: Optional[Dict[int, list]] = None,
    ) -> None:
        self._loop = loop
        self.src = src
        self.dst = dst
        #: Deterministic same-instant tie-break for this link's delivery
        #: events: two packets arriving anywhere in the fabric at the same
        #: nanosecond are delivered in link-identity order, independent of
        #: event scheduling order (and therefore identical between serial
        #: and sharded execution).
        self.prio = prio
        self._capacity_bps = capacity_bps
        self._latency_ns = latency_ns
        self.queue = queue
        self._deliver = deliver
        #: A broadcast copy joins its arrival instant's batch instead of
        #: scheduling ``deliver``: ``land`` is RackNetwork._land, ``batches``
        #: the table it fills (the fan-out appends to a known instant's list
        #: itself).  None on a standalone or cut port.
        self._land = land
        self._batches = batches
        self._on_drop = on_drop
        #: the run's observation surface (repro.sim.probe); None — every
        #: default run — costs one attribute test per packet event.
        self._probe = probe
        #: probability a transmitted data/ACK packet is corrupted on the
        #: wire (fault injection for reliability tests); broadcasts are
        #: exempt so the control plane stays testable independently.
        self._loss_rate = loss_rate
        self._loss_rng = loss_rng
        #: A finish is ``_armed`` at ``_free_at`` with the sequence number
        #: reserved as that serialization started, so it sorts among the
        #: instant's events exactly where a finish scheduled then would.
        self._free_at = self._finish_seq = 0
        self._armed = False
        #: A FIFO never holds back a packet, so while no finish is armed its
        #: queue is empty: without a probe watching enqueues, a packet up
        #: to this size starts transmission without touching the queue
        #: (-1: always queue — PFQ, or a probe is attached).
        self._direct_limit = (
            -1 if type(queue) is not FifoQueue or probe is not None
            else math.inf if queue._limit is None else queue._limit
        )
        #: serialization time per packet size seen (a handful: MTU, ACK,
        #: broadcast and each flow's tail), so a hop does not re-divide.
        self._tx_ns: Dict[int, int] = {}
        # Statistics.
        self.max_occupancy_bytes = 0
        self.bytes_sent = 0
        self.packets_sent = 0
        self.drops = 0
        self.wire_losses = 0
        self.busy_ns = 0

    def send(self, packet: SimPacket, pending: Optional[list] = None) -> bool:
        """Hand a packet to the port; returns False on drop.

        An idle FIFO port with no probe starts transmitting a packet that
        fits its limit at once: the queue would hold it only from its
        enqueue to the dequeue that follows, so ``max_occupancy_bytes``
        still counts it and nothing else differs.  Any other packet is
        enqueued (or dropped when the queue is full) and, if no finish is
        armed, :meth:`_finish` serves it.  The port is idle from
        ``_free_at`` on, unless a packet still waits for the armed finish.

        With a *pending* list (the :meth:`send_batched` form), the delivery
        a transmission this starts would schedule is appended to *pending*
        instead, as ``(duration_ns, callable)``: calling it with no argument
        delivers the packet one link latency later.
        """
        now = self._loop.now
        size = packet.size_bytes
        if not self._armed and self._free_at <= now and size <= self._direct_limit:
            if size > self.max_occupancy_bytes:
                self.max_occupancy_bytes = size
            self._start(packet, now, pending)
            return True
        probe = self._probe
        if not self.queue.enqueue(packet):
            self.drops += 1
            if probe is not None:
                probe.port_drop(self, packet)
            if self._on_drop is not None:
                self._on_drop(packet)
            return False
        if probe is not None:
            probe.port_accept(self, packet)
        occupancy = self.queue.occupancy_bytes
        if occupancy > self.max_occupancy_bytes:
            self.max_occupancy_bytes = occupancy
        if not self._armed:
            self._finish(pending)
        return True

    #: The send path under a private name: :meth:`send_batched` falls back
    #: to it, so a tracer that wraps entry points by name counts a copy once.
    _send = send

    def send_batched(self, packet: SimPacket, pending: Optional[list] = None) -> bool:
        """Hand one broadcast copy of the fan-out to the port.

        An idle FIFO port with no probe starts the copy here, with
        :meth:`_start`'s accounting, into its arrival instant's batch.
        Anything else takes the send path; :meth:`_start` batches a copy
        the queue starts later.
        """
        now = self._loop.now
        size = packet.size_bytes
        batches = self._batches
        if (
            batches is not None and pending is None and not self._armed
            and self._free_at <= now and size <= self._direct_limit
        ):
            if size > self.max_occupancy_bytes:
                self.max_occupancy_bytes = size
            try:
                duration = self._tx_ns[size]
            except KeyError:
                duration = self._tx_ns[size] = transmission_time_ns(
                    size, self._capacity_bps
                )
            self._free_at = free_at = now + duration
            self.busy_ns += duration
            self.bytes_sent += size
            self.packets_sent += 1
            seq = self._finish_seq = self._loop.reserve_transmit()
            at_ns = free_at + self._latency_ns
            batch = batches.get(at_ns)
            if batch is None:
                self._land(at_ns, self.prio, self.dst, packet, seq + 1)
            else:
                batch.append((self.prio, self.dst, packet))
            return True
        return self._send(packet, pending)

    def _start(self, packet: SimPacket, now: int, pending: Optional[list] = None) -> None:
        """Start serializing *packet* at *now* and schedule its delivery.

        The one place a transmission starts, whatever freed the
        transmitter: a send to an idle port, the finish event, or
        :meth:`kick`.  The packet arrives at ``now + duration + latency``
        unless the wire corrupts it (each port draws its losses from its
        own stream, in transmission order).  Either way the transmission
        takes the engine's next sequence number for a finish armed at
        ``_free_at``; a delivered packet's event takes the one after it, in
        the same :meth:`EventLoop.transmit` call (a batched broadcast copy
        reserves both and joins its instant's batch).
        """
        size = packet.size_bytes
        try:
            duration = self._tx_ns[size]
        except KeyError:
            duration = self._tx_ns[size] = transmission_time_ns(
                size, self._capacity_bps
            )
        loop = self._loop
        self._free_at = free_at = now + duration
        self.busy_ns += duration
        self.bytes_sent += size
        self.packets_sent += 1
        probe = self._probe
        if probe is not None:
            probe.tx_start(self, packet, duration)
        if (
            self._loss_rate > 0.0
            and packet.kind != KIND_BROADCAST
            and self._loss_rng is not None
            and self._loss_rng.random() < self._loss_rate
        ):
            # Corrupted on the wire: it consumed transmission time but is
            # discarded by the receiver's checksum.
            self._finish_seq = loop.reserve_seq()
            self.wire_losses += 1
            if probe is not None:
                probe.wire_loss(self, packet)
            return
        if probe is not None:
            probe.tx_finish(self, packet, free_at)
        if pending is not None:
            self._finish_seq = loop.reserve_seq()
            pending.append((duration, partial(
                loop.schedule, self._latency_ns, self._deliver, packet, prio=self.prio)))
        elif packet.kind == KIND_BROADCAST and self._land is not None:
            seq = self._finish_seq = loop.reserve_transmit()
            self._land(free_at + self._latency_ns, self.prio, self.dst, packet, seq + 1)
        else:
            self._finish_seq = loop.transmit(
                free_at + self._latency_ns, self.prio, self._deliver, packet
            )

    def _finish(self, pending: Optional[list] = None) -> None:
        """Start the queue's next packet if the transmitter is free, then
        arm a finish at ``_free_at`` if a packet still waits.

        Called as the armed finish event, and by a send or :meth:`kick`
        that finds none armed.  ``_armed`` stays set across the event's
        dequeue, so a send re-entering from it (a PFQ queue resuming a
        source) queues behind.
        """
        now = self._loop.now
        if self._free_at <= now:
            packet = self.queue.dequeue()
            self._armed = False
            if packet is None:
                return
            self._start(packet, now, pending)
        if self.queue.occupancy_bytes:
            self._armed = True
            self._loop.schedule_at(self._free_at, self._finish, seq=self._finish_seq)

    def kick(self) -> None:
        """Restart transmission after a pause/resume changed the queue."""
        if not self._armed:
            self._finish()

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._loop.now < self._free_at

    @property
    def capacity_bps(self) -> float:
        """The link's line rate (telemetry probes compute utilization)."""
        return self._capacity_bps


class RackNetwork:
    """All ports of the rack plus the forwarding logic between them."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        fib: Optional[BroadcastFib] = None,
        queue_factory: Callable[[], object] = FifoQueue,
        on_drop: Optional[Callable[[NodeId, SimPacket], None]] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        owned_nodes=None,
        boundary: Optional[Callable[[int, NodeId, SimPacket], None]] = None,
        probe=None,
    ) -> None:
        """Build the fabric (or, for sharded runs, one shard's slice of it).

        With ``owned_nodes`` set (an iterable of node ids), only the output
        ports whose *sending* node is owned are instantiated.  A cut port —
        owned sender, remote receiver — serializes packets normally (so its
        queueing/transmission statistics stay exact) but hands the finished
        packet to ``boundary(arrival_ns, dst, packet)`` at transmission-end
        time instead of scheduling local propagation (its delivery event
        has zero latency, so it fires as serialization ends); the shard
        coordinator relays it to the owning shard, which re-enters it via
        :meth:`receive`.  The hand-off consumes exactly the event-loop slot
        the serial engine would spend on the propagation event (keeping
        per-shard sequence assignment aligned), and the injected event
        carries the link's delivery priority, so same-instant ordering at
        the destination is byte-identical to the serial run.
        """
        if not (0.0 <= loss_rate < 1.0):
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self._loop = loop
        self._topology = topology
        self._fib = fib
        self._probe = probe
        owned = None if owned_nodes is None else set(owned_nodes)
        if owned is not None and boundary is None:
            raise SimulationError("owned_nodes requires a boundary callback")
        self._owned = owned
        self._boundary = boundary
        #: arrival instant -> the broadcast copies landing then, as
        #: ``(link_prio, dst, packet)``; one :meth:`_deliver_batch` event
        #: per instant delivers them.
        self._batches: Dict[int, List[Tuple[int, NodeId, SimPacket]]] = {}
        #: (src, tree_id) -> that tree's children table, indexed by node;
        #: fetched from the FIB when a broadcast on the tree is first
        #: injected, and carried by every broadcast on it as its ``path``.
        self._children: Dict[Tuple[NodeId, int], tuple] = {}
        #: stack_at[node] is installed by the runner; it must expose
        #: deliver(packet) for packets terminating at the node.
        self.stack_at: List[Optional[object]] = [None] * topology.n_nodes
        #: ports[src][dst], filled in link order (ascending src, then dst):
        #: every per-port statistic is reported in this iteration order.
        self._ports: Dict[NodeId, Dict[NodeId, OutputPort]] = {
            node: {} for node in topology.nodes()
        }
        for link in topology.links:
            if owned is not None and link.src not in owned:
                continue
            if owned is not None and link.dst not in owned:
                deliver = partial(
                    self._cross_boundary, link.src, link.dst, link.latency_ns
                )
                latency_ns = 0
                land = batches = None
            else:
                deliver = partial(self.arrived, link.dst)
                latency_ns = link.latency_ns
                land, batches = self._land, self._batches
            # Wire-loss draws come from a per-port stream keyed by the
            # link's identity: each port's sequence depends only on its own
            # transmissions, so any sharding of the fabric (which splits
            # ports across processes) reproduces the serial draws exactly.
            loss_rng = (
                random.Random(derive_seed(loss_seed, "wire-loss", link.src, link.dst))
                if loss_rate > 0
                else None
            )
            self._ports[link.src][link.dst] = OutputPort(
                loop,
                link.src,
                link.dst,
                link.capacity_bps,
                latency_ns,
                queue_factory(),
                deliver=deliver,
                on_drop=None if on_drop is None else partial(on_drop, link.src),
                loss_rate=loss_rate,
                loss_rng=loss_rng,
                prio=link_prio(link.src, link.dst, topology.n_nodes),
                probe=probe,
                land=land,
                batches=batches,
            )
        if probe is not None:
            probe.attach_network(self)

    @property
    def topology(self) -> Topology:
        """The fabric being simulated."""
        return self._topology

    @property
    def fib(self) -> Optional[BroadcastFib]:
        """The broadcast FIB, if broadcasts are in use."""
        return self._fib

    def port(self, src: NodeId, dst: NodeId) -> OutputPort:
        """The output port for directed link src -> dst."""
        try:
            return self._ports[src][dst]
        except KeyError:
            raise SimulationError(f"no link {src} -> {dst}") from None

    def ports(self) -> List[OutputPort]:
        """All output ports (stats collection)."""
        return [port for by_dst in self._ports.values() for port in by_dst.values()]

    def _cross_boundary(
        self, src: NodeId, dst: NodeId, latency_ns: int, packet: SimPacket
    ) -> None:
        """Deliver hook of a cut port: emit a timestamped message.

        Fires at transmission-finish time (the port's scheduling latency is
        zero); the true arrival instant is computed here so the remote shard
        can :meth:`receive` it at exactly the time the serial engine would
        have — with the link's delivery priority, so the injected event
        sorts against the destination shard's same-instant events exactly
        as the serial engine's propagation event would.
        """
        self._boundary(self._loop.now + latency_ns, src, dst, packet)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def check_node(self, node: NodeId) -> None:
        """Raise unless *node* is a node of this fabric.

        Forwarding indexes per-node tables without a range check per hop
        (a negative id would silently wrap to the far end of the table), so
        every id that enters from outside the fabric's own wiring —
        :meth:`inject`, a shard's boundary arrivals — is checked once here.
        """
        if not 0 <= node < self._topology.n_nodes:
            raise SimulationError(f"unknown node {node}")

    def inject(self, node: NodeId, packet: SimPacket) -> bool:
        """A host at *node* hands a packet to its switching element; a
        broadcast's ``path`` becomes its tree's children table, once."""
        self.check_node(node)
        if packet.kind != KIND_BROADCAST:
            return self._forward_data(node, packet)
        if self._fib is None:
            raise SimulationError("broadcast sent but no FIB configured")
        tree = (packet.src, packet.tree_id)
        table = self._children.get(tree)
        if table is None:
            table = self._children[tree] = self._fib.tree(*tree).children_table
        packet.path = table
        stack = self.stack_at[node]
        if stack is None:
            raise SimulationError(f"no host stack installed at node {node}")
        if self._probe is not None:
            self._probe.local_deliver(node, packet)
        stack.deliver(packet)
        children = table[node]
        return not children or self._forward_broadcast(node, packet, children)

    def receive(self, at_ns: int, src: NodeId, dst: NodeId, packet: SimPacket) -> None:
        """A packet that crossed the cut link ``src -> dst`` from another
        shard arrives at *dst* at *at_ns*: a unicast packet as its own
        event with the link's delivery priority, a broadcast copy into the
        batch of *at_ns* — where the serial engine's copy would be."""
        self.check_node(dst)
        prio = link_prio(src, dst, self._topology.n_nodes)
        if packet.kind == KIND_BROADCAST:
            self._land(at_ns, prio, dst, packet, self._loop.reserve_seq())
        else:
            self._loop.schedule_at(at_ns, self.arrived, dst, packet, prio=prio)

    def arrived(self, node: NodeId, packet: SimPacket) -> None:
        """A unicast packet finished propagating to *node*."""
        probe = self._probe
        if probe is not None:
            probe.arrive(node, packet)
        path = packet.path
        hop = packet.hop = packet.hop + 1
        if path is None or hop != len(path) - 1:
            self._forward_data(node, packet)
            return
        stack = self.stack_at[node]
        if stack is None:
            raise SimulationError(f"no host stack installed at node {node}")
        if probe is not None:
            probe.local_deliver(node, packet)
        stack.deliver(packet)

    def _land(
        self, at_ns: int, prio: int, node: NodeId, packet: SimPacket, slot: int
    ) -> None:
        """A broadcast copy on link *prio* reaches *node* at *at_ns*.

        The instant's first copy schedules the batch event with its own
        delivery *slot* as the sequence number.  A serialization takes at
        least a nanosecond, so no copy joins a batch that is running.
        """
        batch = self._batches.get(at_ns)
        if batch is None:
            self._batches[at_ns] = [(prio, node, packet)]
            self._loop.schedule_at(
                at_ns, self._deliver_batch, at_ns, slot, prio=BATCH_PRIO, seq=slot
            )
        else:
            batch.append((prio, node, packet))

    def _deliver_batch(self, at_ns: int, slot: int) -> None:
        """Deliver the copies landing at *at_ns*, ascending link priority.

        A queued event of this instant that sorts before the next copy's
        ``(at_ns, prio)`` — a unicast delivery on a lower link, anything a
        copy delivered so far scheduled — runs first: the batch
        re-schedules its rest at that key and returns.  A link delivers at
        most one packet per instant, so the key is unique.
        """
        copies = self._batches.pop(at_ns)
        copies.sort()
        loop = self._loop
        probe = self._probe
        stack_at = self.stack_at
        for index, (prio, node, packet) in enumerate(copies):
            if loop.yields_to(at_ns, prio):
                self._batches[at_ns] = copies[index:]
                loop.schedule_at(
                    at_ns, self._deliver_batch, at_ns, slot, prio=prio, seq=slot
                )
                return
            if probe is not None:
                probe.arrive(node, packet)
            stack = stack_at[node]
            if stack is None:
                raise SimulationError(f"no host stack installed at node {node}")
            if probe is not None:
                probe.local_deliver(node, packet)
            stack.deliver(packet)
            children = packet.path[node]
            # A leaf of the tree, as a third to a half of all deliveries
            # are, forwards nothing.
            if children:
                self._forward_broadcast(node, packet, children)

    def _forward_data(self, node: NodeId, packet: SimPacket) -> bool:
        path = packet.path
        if path is None:
            raise SimulationError("data packet without a source route")
        hop = packet.hop
        if path[hop] != node:
            raise SimulationError(
                f"packet at node {node} but route says {path[hop]}"
            )
        port = self._ports[node].get(path[hop + 1])
        if port is None:
            raise SimulationError(f"no link {node} -> {path[hop + 1]}")
        return port.send(packet)

    def _forward_broadcast(
        self, node: NodeId, packet: SimPacket, children: Tuple[NodeId, ...]
    ) -> bool:
        """The fan-out: each child's port gets the broadcast itself (one
        object on every port of the tree; nothing on it changes per hop)."""
        ports = self._ports[node]
        ok = True
        for child in children:
            try:
                port = ports[child]
            except KeyError:
                raise SimulationError(f"no link {node} -> {child}") from None
            ok = port.send_batched(packet) and ok
        return ok

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def link_stats(self):
        """Yield ``(src, dst, bytes_sent, queue_bytes, drops)`` per port.

        The telemetry link probes sample this on a cadence; iteration
        order is the (deterministic) port construction order.
        """
        for port in self.ports():
            yield port.src, port.dst, port.bytes_sent, port.queue.occupancy_bytes, port.drops

    def link_capacity_bps(self, src: NodeId, dst: NodeId) -> float:
        """Line rate of directed link src -> dst."""
        return self.port(src, dst).capacity_bps

    def max_queue_occupancies(self) -> List[int]:
        """Per-port maximum queue occupancy in bytes (Figures 7b, 14)."""
        return [port.max_occupancy_bytes for port in self.ports()]

    def total_drops(self) -> int:
        """Packets dropped across all ports."""
        return sum(port.drops for port in self.ports())

    def total_wire_losses(self) -> int:
        """Packets corrupted by injected wire loss across all ports."""
        return sum(port.wire_losses for port in self.ports())

    def total_bytes_sent(self) -> int:
        """Bytes transmitted across all links."""
        return sum(port.bytes_sent for port in self.ports())
