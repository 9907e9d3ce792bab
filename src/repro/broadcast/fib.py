"""The broadcast forwarding information base (paper §3.2).

Every rack node holds a FIB indexed by ``<src-address, tree-id>`` yielding
the set of next-hop nodes a broadcast packet must be forwarded to.  A node
only ever needs its own rows of the trees broadcasts actually travel, so the
rack-wide view here resolves a tree the first time something asks for it and
shares it with every other FIB on the same topology
(:func:`~repro.broadcast.tree.shared_broadcast_tree`); forwarding is then a
table lookup per hop, cheap enough for an on-chip implementation.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import BroadcastError
from ..topology.base import Topology
from ..types import NodeId
from .tree import BroadcastTree, shared_broadcast_tree


class BroadcastFib:
    """Per-node broadcast forwarding tables for a whole rack.

    Args:
        topology: The rack fabric.
        n_trees: Trees enumerated per source.
        seed: Tie-breaking seed for tree construction (all nodes must agree
            on it, exactly like they agree on the topology).
    """

    def __init__(self, topology: Topology, n_trees: int = 4, seed: int = 0) -> None:
        if n_trees < 1:
            raise BroadcastError(f"need at least one tree per source, got {n_trees}")
        self._topology = topology
        self._n_nodes = topology.n_nodes
        self._n_trees = n_trees
        self._seed = seed

    @property
    def n_trees(self) -> int:
        """Trees per source."""
        return self._n_trees

    def tree(self, src: NodeId, tree_id: int) -> BroadcastTree:
        """The tree object for ``(src, tree_id)``."""
        if not (0 <= src < self._n_nodes and 0 <= tree_id < self._n_trees):
            raise BroadcastError(f"unknown broadcast tree ({src}, {tree_id})")
        return shared_broadcast_tree(self._topology, src, tree_id, self._seed)

    def trees_for(self, src: NodeId) -> List[BroadcastTree]:
        """All trees rooted at *src*."""
        return [self.tree(src, i) for i in range(self._n_trees)]

    def next_hops(
        self, node: NodeId, src: NodeId, tree_id: int
    ) -> Tuple[NodeId, ...]:
        """FIB lookup: where *node* forwards a broadcast from *src* on
        *tree_id*.  Empty tuple at leaves."""
        if not (0 <= node < self._n_nodes):
            raise BroadcastError(f"unknown node {node}")
        return self.tree(src, tree_id).children(node)

    def delivery_order(
        self, src: NodeId, tree_id: int
    ) -> List[Tuple[NodeId, NodeId]]:
        """The (forwarder, receiver) hops of one full broadcast, BFS order.

        Useful for simulators and for byte accounting: the number of entries
        is exactly the traffic multiplier of one broadcast packet.
        """
        tree = self.tree(src, tree_id)
        order: List[Tuple[NodeId, NodeId]] = []
        frontier = [src]
        while frontier:
            nxt: List[NodeId] = []
            for node in frontier:
                for child in tree.children(node):
                    order.append((node, child))
                    nxt.append(child)
            frontier = nxt
        return order

    def fib_entry_count(self, node: NodeId) -> int:
        """Number of FIB entries at *node* (memory-footprint checks): the
        ``<src, tree-id>`` rows with at least one next hop."""
        return sum(
            1
            for src in range(self._n_nodes)
            for tree_id in range(self._n_trees)
            if self.next_hops(node, src, tree_id)
        )
