"""Broadcast reliability bookkeeping (paper §3.2, "Failures").

Broadcast packets can be corrupted (caught by the checksum), dropped at a
congested intermediate node (the dropper notifies the sender, who
retransmits), or lost to link/node failures (detected by topology discovery,
after which every node re-announces all of its ongoing flows).

This module provides the sender- and forwarder-side state machines; the
simulator and the core node drive them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import BroadcastError
from ..types import NodeId
from ..wire.packets import DropNotificationPacket


@dataclass
class PendingBroadcast:
    """A broadcast awaiting confidence of delivery.

    R2C2 broadcasts are not acknowledged; the only failure signal is an
    explicit drop notification.  We therefore keep a small replay buffer of
    recently sent broadcasts keyed by sequence number so a drop notification
    can be matched to its payload.
    """

    seq: int
    payload: object
    tree_id: int
    retransmits: int = 0


class BroadcastSenderReliability:
    """Sender-side replay buffer and retransmit policy.

    *max_retransmits* ``None`` resends a broadcast for as long as it stays
    in the replay window (the R2C2 node's policy).
    """

    def __init__(
        self, replay_window: int = 1024, max_retransmits: Optional[int] = 8
    ) -> None:
        if replay_window < 1:
            raise BroadcastError("replay_window must be >= 1")
        self._window = replay_window
        self._max_retransmits = max_retransmits
        self._pending: Dict[int, PendingBroadcast] = {}
        self._next_seq = 0

    def register(self, payload, tree_id: int) -> int:
        """Record an outgoing broadcast; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        pending = self._pending
        pending[seq] = PendingBroadcast(seq, payload, tree_id)
        # Evict the oldest entries beyond the replay window: sequence
        # numbers only grow, so insertion order is age order.
        while len(pending) > self._window:
            del pending[next(iter(pending))]
        return seq

    def on_drop_notification(self, seq: int) -> Optional[PendingBroadcast]:
        """Handle a drop notification from a forwarding node.

        Returns the broadcast to retransmit, or ``None`` if it aged out of
        the replay buffer or exceeded the retransmit budget (at which point
        the periodic re-announce of ongoing flows is the safety net).
        """
        entry = self._pending.get(seq)
        if entry is None:
            return None
        entry.retransmits += 1
        if self._max_retransmits is not None and entry.retransmits > self._max_retransmits:
            del self._pending[seq]
            return None
        return entry

    def acknowledge_window(self, up_to_seq: int) -> None:
        """Drop replay state for broadcasts up to *up_to_seq* (inclusive)."""
        for seq in [s for s in self._pending if s <= up_to_seq]:
            del self._pending[seq]

    def pending_count(self) -> int:
        """Broadcasts currently held in the replay buffer."""
        return len(self._pending)


class BroadcastForwarderReliability:
    """Forwarder-side duties: verify checksums, report drops."""

    def __init__(self, node: NodeId) -> None:
        self._node = node
        self.drops_reported = 0
        self.corruptions_detected = 0

    def on_queue_overflow(self, source: NodeId, seq: int) -> DropNotificationPacket:
        """Called when this node had to drop a broadcast packet; returns the
        notification to send *source*."""
        self.drops_reported += 1
        return DropNotificationPacket(dropped_at=self._node, source=source, seq=seq)

    def on_corrupt_packet(self) -> None:
        """Called when a checksum failed; the packet is discarded.

        Corrupted broadcasts are *not* reported (the header may be garbage);
        recovery relies on the failure-path re-announce.
        """
        self.corruptions_detected += 1


class FailureRecovery:
    """Rack-wide failure handling: re-announce all ongoing flows.

    Topology discovery (assumed, as in the paper, to exist for routing
    anyway) reports failed links/nodes; each node then re-broadcasts its
    ongoing flows so tables rebuilt after the event converge.  The paper
    notes this is cheap because failures are rare (≈0.3 faults/year/CPU
    [43] — under two per day for a 512-node rack with four CPUs each).
    """

    def __init__(self) -> None:
        self._failed_links: Set[Tuple[NodeId, NodeId]] = set()
        self._failed_nodes: Set[NodeId] = set()
        self.reannounce_count = 0

    @property
    def failed_links(self) -> Set[Tuple[NodeId, NodeId]]:
        """Currently known failed directed links."""
        return set(self._failed_links)

    @property
    def failed_nodes(self) -> Set[NodeId]:
        """Currently known failed nodes."""
        return set(self._failed_nodes)

    def on_link_failure(self, src: NodeId, dst: NodeId) -> bool:
        """Record a failed link; returns True if it is news."""
        if (src, dst) in self._failed_links:
            return False
        self._failed_links.add((src, dst))
        return True

    def on_node_failure(self, node: NodeId) -> bool:
        """Record a failed node; returns True if it is news."""
        if node in self._failed_nodes:
            return False
        self._failed_nodes.add(node)
        return True

    def on_recovery(self, src: NodeId = None, dst: NodeId = None, node: NodeId = None) -> None:
        """Clear failure state for a repaired link or node."""
        if node is not None:
            self._failed_nodes.discard(node)
        if src is not None and dst is not None:
            self._failed_links.discard((src, dst))

    def flows_to_reannounce(self, local_flows) -> List:
        """All local ongoing flows, to be re-broadcast after a failure."""
        self.reannounce_count += 1
        return list(local_flows)

    def expected_failures_per_day(
        self, n_nodes: int, cpus_per_node: int = 4, faults_per_cpu_year: float = 0.3
    ) -> float:
        """The paper's back-of-envelope failure-rate estimate."""
        return n_nodes * cpus_per_node * faults_per_cpu_year / 365.0
