"""The flow-event broadcast substrate (paper §3.2).

Broadcast trees are per-source shortest-path spanning trees; every node
holds a :class:`BroadcastFib` indexed by ``<src, tree-id>``.  The analytic
models in :mod:`~repro.broadcast.overhead` back Figures 9 and 19, and
:mod:`~repro.broadcast.reliability` implements the drop/failure handling.
"""

from .fib import BroadcastFib
from .overhead import (
    BROADCAST_PACKET_BYTES,
    ControlTrafficModel,
    all_pairs_broadcast_bytes_per_link,
    broadcast_bytes_total,
    broadcast_capacity_fraction,
    flow_event_overhead,
    flow_wire_bytes,
)
from .reliability import (
    BroadcastForwarderReliability,
    BroadcastSenderReliability,
    FailureRecovery,
    PendingBroadcast,
)
from .tree import BroadcastTree, TreeSelector, build_broadcast_tree, build_broadcast_trees

__all__ = [
    "BROADCAST_PACKET_BYTES",
    "BroadcastFib",
    "BroadcastForwarderReliability",
    "BroadcastSenderReliability",
    "BroadcastTree",
    "ControlTrafficModel",
    "FailureRecovery",
    "PendingBroadcast",
    "TreeSelector",
    "all_pairs_broadcast_bytes_per_link",
    "broadcast_bytes_total",
    "broadcast_capacity_fraction",
    "flow_event_overhead",
    "flow_wire_bytes",
    "build_broadcast_tree",
    "build_broadcast_trees",
]
