"""The Maze cluster emulation platform (paper §4.1).

A :class:`MazePlatform` maps a virtual rack topology onto a set of
:class:`~repro.maze.server.MazeServer` instances and advances them in fixed
timesteps, the way a polling-loop user-space stack behaves on a real
cluster.  Inter-server transfers model RDMA writes: bytes leave a pointer
ring within the link's byte budget, propagate for the link latency, then
land in the destination server's data ring buffer (retried while the buffer
is full, which is RDMA flow control in miniature).

This engine is deliberately *different* from the event-driven packet
simulator — discrete time vs events, byte buffers vs packet objects — so
that agreement between the two (Figure 7) is a meaningful cross-validation.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..broadcast.fib import BroadcastFib
from ..errors import EmulationError
from ..topology.base import Topology
from ..types import NodeId
from .server import MazeServer


class MazePlatform:
    """All servers of one emulated rack plus the virtual links between them."""

    def __init__(
        self,
        topology: Topology,
        fib: Optional[BroadcastFib] = None,
        step_ns: int = 1000,
        dr_slots: int = 256,
        slot_bytes: int = 9 * 1024,
        pr_capacity: int = 4096,
    ) -> None:
        if step_ns < 1:
            raise EmulationError(f"step must be >= 1 ns, got {step_ns}")
        self._topology = topology
        self.step_ns = step_ns
        self.now_ns = 0
        self.servers: List[MazeServer] = [
            MazeServer(
                node,
                topology,
                fib,
                dr_slots=dr_slots,
                slot_bytes=slot_bytes,
                pr_capacity=pr_capacity,
            )
            for node in topology.nodes()
        ]
        #: in-flight transfers: (arrival time, seq, dst node, src node, bytes)
        self._in_flight: List[Tuple[int, int, NodeId, NodeId, bytes]] = []
        self._flight_seq = 0
        #: transfers that arrived but found the destination ring full.
        self._blocked: List[Tuple[NodeId, NodeId, bytes]] = []
        #: per-step hooks (the stack layer registers its work here).
        self._step_hooks: List[Callable[[int], None]] = []
        self.total_bytes_transferred = 0

    @property
    def topology(self) -> Topology:
        """The virtual topology being emulated."""
        return self._topology

    def server(self, node: NodeId) -> MazeServer:
        """The server emulating *node*."""
        return self.servers[node]

    def add_step_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callable invoked with ``now_ns`` once per step."""
        self._step_hooks.append(hook)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the emulation by one timestep."""
        self.now_ns += self.step_ns

        # 1. Land transfers whose propagation delay elapsed.
        self._deliver_due()

        # 2. Every server forwards what it has.
        for server in self.servers:
            server.process_incoming()

        # 3. Application-level work (flow emission, control plane).
        for hook in self._step_hooks:
            hook(self.now_ns)

        # 4. Every server serves its outgoing links.
        for server in self.servers:
            server.transmit(self.step_ns, self._send)

    def run_for(self, duration_ns: int) -> None:
        """Advance by *duration_ns* (rounded up to whole steps)."""
        steps = -(-duration_ns // self.step_ns)
        for _ in range(steps):
            self.step()

    def run_until(self, predicate: Callable[[], bool], max_ns: int) -> bool:
        """Step until *predicate* holds; False if *max_ns* elapsed first."""
        deadline = self.now_ns + max_ns
        while self.now_ns < deadline:
            if predicate():
                return True
            self.step()
        return predicate()

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _send(self, src: NodeId, dst: NodeId, data: bytes) -> None:
        link = self._topology.link(src, dst)
        arrival = self.now_ns + link.latency_ns
        heapq.heappush(
            self._in_flight, (arrival, self._flight_seq, dst, src, data)
        )
        self._flight_seq += 1
        self.total_bytes_transferred += len(data)

    def _deliver_due(self) -> None:
        still_blocked: List[Tuple[NodeId, NodeId, bytes]] = []
        for dst, src, data in self._blocked:
            if not self.servers[dst].rdma_write(src, data):
                still_blocked.append((dst, src, data))
        self._blocked = still_blocked
        while self._in_flight and self._in_flight[0][0] <= self.now_ns:
            _, _, dst, src, data = heapq.heappop(self._in_flight)
            if not self.servers[dst].rdma_write(src, data):
                self._blocked.append((dst, src, data))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def max_queue_occupancies(self) -> List[int]:
        """Per-outgoing-link max queued bytes, across all servers."""
        out: List[int] = []
        for server in self.servers:
            out.extend(server.max_queue_occupancies())
        return out
