"""One emulated Maze server (paper §4.1, Figure 5).

A server owns, per incoming link, a data ring buffer that remote peers
(emulated-)RDMA-write packets into; per outgoing link, a set of pointer
rings (one per incoming link plus one for the local application) drained at
line rate; and the forwarding logic between them, which is the real R2C2
data plane: it reads the *encoded* packet header, extracts the next port
from the 3-bit route field, bumps the route index in place and hands the
pointer — never the bytes — to the chosen outgoing link.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..broadcast.fib import BroadcastFib
from ..errors import EmulationError
from ..topology.base import Topology
from ..types import NodeId
from ..wire import packets as pkt
from ..wire.route_encoding import port_at
from .ringbuffer import DataRingBuffer, PointerRing

#: Pointer-ring source tags.
SOURCE_APP = -1
#: Slots of the ring buffer the local application reads delivered data from.
_APP_DR_SLOTS = 1024


class MazeOutLink:
    """An outgoing link: pointer rings, a byte budget, and the emulated QP."""

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: float,
        latency_ns: int,
        pr_capacity: int,
    ) -> None:
        self.src = src
        self.dst = dst
        self.capacity_bps = capacity_bps
        self.latency_ns = latency_ns
        self._pr_capacity = pr_capacity
        #: pointer rings keyed by source (incoming neighbor id or SOURCE_APP)
        self.rings: Dict[int, PointerRing] = {}
        self._service_order: List[int] = []
        self._next_ring = 0
        self._budget_bytes = 0.0
        self.queued_bytes = 0
        self.max_queued_bytes = 0
        self.bytes_sent = 0

    def ring_for(self, source: int) -> PointerRing:
        """The pointer ring fed by *source* (created lazily)."""
        ring = self.rings.get(source)
        if ring is None:
            ring = PointerRing(
                self._pr_capacity, name=f"pr({self.src}->{self.dst})[{source}]"
            )
            self.rings[source] = ring
            self._service_order.append(source)
        return ring

    def push(self, source: int, buffer: DataRingBuffer, slot: int) -> bool:
        """Queue a packet pointer for transmission."""
        ring = self.ring_for(source)
        if not ring.push(buffer, slot):
            return False
        self.queued_bytes += len(buffer.read(slot))
        if self.queued_bytes > self.max_queued_bytes:
            self.max_queued_bytes = self.queued_bytes
        return True

    def add_budget(self, dt_ns: int, max_accumulation_bytes: float) -> None:
        """Accrue transmission budget for one timestep."""
        self._budget_bytes = min(
            self._budget_bytes + self.capacity_bps * dt_ns / 8e9,
            max_accumulation_bytes,
        )

    def transmit(
        self, send: Callable[[NodeId, NodeId, bytes], None]
    ) -> List[Tuple[DataRingBuffer, int]]:
        """Drain pointer rings round-robin within the byte budget.

        *send* emits the bytes toward the neighbor; the freed (buffer, slot)
        references are returned so the server can release them.
        """
        sent: List[Tuple[DataRingBuffer, int]] = []
        if not self._service_order:
            return sent
        idle_scans = 0
        while idle_scans < len(self._service_order):
            source = self._service_order[self._next_ring % len(self._service_order)]
            self._next_ring += 1
            ring = self.rings[source]
            head = ring.peek()
            if head is None:
                idle_scans += 1
                continue
            buffer, slot = head
            size = len(buffer.read(slot))
            if size > self._budget_bytes:
                break
            ring.pop()
            self._budget_bytes -= size
            self.queued_bytes -= size
            self.bytes_sent += size
            send(self.src, self.dst, buffer.read(slot))
            sent.append((buffer, slot))
            idle_scans = 0
        return sent


class MazeServer:
    """One rack node: ring buffers, pointer rings, forwarding."""

    def __init__(
        self,
        node: NodeId,
        topology: Topology,
        fib: Optional[BroadcastFib],
        dr_slots: int = 256,
        slot_bytes: int = 9 * 1024,
        pr_capacity: int = 4096,
    ) -> None:
        self.node = node
        self._topology = topology
        self._fib = fib
        self.slot_bytes = slot_bytes
        # One data ring buffer per incoming link, plus one for the app.
        self.incoming_dr: Dict[NodeId, DataRingBuffer] = {
            up: DataRingBuffer(dr_slots, slot_bytes, name=f"dr({up}->{node})")
            for up in topology.in_neighbors(node)
        }
        self.app_dr = DataRingBuffer(_APP_DR_SLOTS, slot_bytes, name=f"dr(app@{node})")
        self.out_links: Dict[NodeId, MazeOutLink] = {}
        for down in topology.neighbors(node):
            link = topology.link(node, down)
            self.out_links[down] = MazeOutLink(
                node, down, link.capacity_bps, link.latency_ns, pr_capacity
            )
        #: slots awaiting forwarding, per incoming link, in arrival order.
        self._pending: Dict[NodeId, Deque[int]] = {
            up: deque() for up in self.incoming_dr
        }
        #: reference counts for multicast (broadcast) slots.
        self._refcount: Dict[Tuple[int, int], int] = {}
        #: local delivery callback, installed by the stack.
        self.on_local_delivery: Optional[Callable[[bytes], None]] = None
        self.forwarded_packets = 0
        self.delivered_packets = 0

    # ------------------------------------------------------------------
    # Receiving (emulated RDMA write landing in our memory)
    # ------------------------------------------------------------------
    def rdma_write(self, from_node: NodeId, data: bytes) -> bool:
        """A neighbor wrote *data* into our ring buffer for that link."""
        dr = self.incoming_dr.get(from_node)
        if dr is None:
            raise EmulationError(f"no incoming link {from_node} -> {self.node}")
        slot = dr.write(data)
        if slot is None:
            return False
        self._pending[from_node].append(slot)
        return True

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def process_incoming(self) -> None:
        """Forward or deliver every pending packet (head-of-line per DR)."""
        for up, pending in self._pending.items():
            dr = self.incoming_dr[up]
            while pending:
                slot = pending[0]
                if not self._handle_packet(dr, slot, source=up):
                    break  # output ring full; retry next step
                pending.popleft()

    def _handle_packet(self, dr: DataRingBuffer, slot: int, source: int) -> bool:
        data = dr.read(slot)
        ptype = data[0] >> 4
        if ptype == pkt.TYPE_BROADCAST:
            return self._handle_broadcast(dr, slot, data, source)
        if ptype != pkt.TYPE_DATA:
            raise EmulationError(f"unknown packet type {ptype} at node {self.node}")
        rlen = data[pkt.DATA_RLEN_OFFSET]
        ridx = data[pkt.DATA_RIDX_OFFSET]
        if ridx >= rlen:
            self._deliver_local(data)
            dr.free(slot)
            return True
        port = port_at(data[pkt.DATA_ROUTE_OFFSET : pkt.DATA_HEADER_SIZE], ridx)
        next_node = self._topology.neighbor_at_port(self.node, port)
        # Bump the route index in place — excluded from the checksum by
        # design, so no recomputation is needed.
        at = pkt.DATA_RIDX_OFFSET
        mutated = data[:at] + bytes([ridx + 1]) + data[at + 1 :]
        out = self.out_links[next_node]
        dr.replace(slot, mutated)
        if not out.push(source, dr, slot):
            # Ring full: undo the mutation so a retry next step is clean.
            dr.replace(slot, data)
            return False
        self.forwarded_packets += 1
        return True

    def _handle_broadcast(
        self, dr: DataRingBuffer, slot: int, data: bytes, source: int
    ) -> bool:
        children = self._children(data)
        # All-or-nothing: only proceed if every child ring has space, so a
        # retry cannot double-send to some children.
        for child in children:
            ring = self.out_links[child].ring_for(source)
            if len(ring) >= ring.capacity:
                return False
        self._deliver_local(data)
        if not children:
            dr.free(slot)
            return True
        self._refcount[(id(dr), slot)] = len(children)
        for child in children:
            if not self.out_links[child].push(source, dr, slot):
                raise EmulationError("broadcast push failed after capacity check")
        self.forwarded_packets += len(children)
        return True

    def _children(self, data: bytes) -> Sequence[NodeId]:
        """This node's children on the tree broadcast *data* travels (its
        source and tree id are read from the header)."""
        if self._fib is None:
            raise EmulationError("broadcast received but no FIB configured")
        bsrc = int.from_bytes(data[pkt.BROADCAST_SRC_OFFSET : pkt.BROADCAST_SRC_OFFSET + 2], "big")
        tree_id = data[pkt.BROADCAST_TREE_OFFSET] >> 4
        return self._fib.next_hops(self.node, bsrc, tree_id)

    def _deliver_local(self, data: bytes) -> None:
        self.delivered_packets += 1
        if self.on_local_delivery is not None:
            self.on_local_delivery(data)

    # ------------------------------------------------------------------
    # Application send path
    # ------------------------------------------------------------------
    def app_send(self, data: bytes, first_hops: List[NodeId]) -> bool:
        """The local application queues *data* toward one or more neighbors.

        Multiple first hops occur only for broadcasts (the source forwards a
        copy down every child of its tree).  All-or-nothing like forwarding.
        """
        if not first_hops:
            raise EmulationError("app_send needs at least one first hop")
        for hop in first_hops:
            ring = self.out_links[hop].ring_for(SOURCE_APP)
            if len(ring) >= ring.capacity:
                return False
        if not self.app_dr.has_space():
            return False
        slot = self.app_dr.write(data)
        assert slot is not None
        if len(first_hops) > 1:
            self._refcount[(id(self.app_dr), slot)] = len(first_hops)
        for hop in first_hops:
            if not self.out_links[hop].push(SOURCE_APP, self.app_dr, slot):
                raise EmulationError("app push failed after capacity check")
        return True

    def app_broadcast(self, data: bytes) -> bool:
        """The local application originates broadcast *data* down the tree
        its header names; a node without children there sends nothing."""
        children = self._children(data)
        return bool(children) and self.app_send(data, list(children))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, dt_ns: int, send: Callable[[NodeId, NodeId, bytes], None]) -> None:
        """Serve every outgoing link's pointer rings for one timestep."""
        # Budget accrual is capped at one maximum-size packet: a link that
        # sat idle must not burst several packets back-to-back into the next
        # hop, which would inflate downstream queues beyond what line-rate
        # serialization allows.
        for out in self.out_links.values():
            out.add_budget(dt_ns, max_accumulation_bytes=float(self.slot_bytes))
            for buffer, slot in out.transmit(send):
                self._release(buffer, slot)

    def _release(self, buffer: DataRingBuffer, slot: int) -> None:
        key = (id(buffer), slot)
        count = self._refcount.get(key)
        if count is None:
            buffer.free(slot)
            return
        if count <= 1:
            del self._refcount[key]
            buffer.free(slot)
        else:
            self._refcount[key] = count - 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def max_queue_occupancies(self) -> List[int]:
        """Per-outgoing-link maximum queued bytes."""
        return [out.max_queued_bytes for out in self.out_links.values()]
