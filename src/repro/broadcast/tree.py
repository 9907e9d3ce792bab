"""Per-source broadcast trees (paper §3.2).

R2C2 broadcasts flow events along shortest-path spanning trees, optimizing
*broadcast time*: every node receives the packet within its shortest-path
distance from the source.  Multiple trees are enumerated per source (BFS
with different tie-breaking) so senders can load-balance broadcast bytes
across links and route around failures.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BroadcastError
from ..topology.base import Topology
from ..types import LinkId, NodeId


class BroadcastTree:
    """One shortest-path spanning tree rooted at a source node.

    Attributes:
        root: The source node.
        tree_id: Identifier carried in broadcast-packet headers.
        parent: ``parent[node]`` is the node's parent (``None`` at the root
            and for unreachable nodes).
    """

    def __init__(
        self,
        topology: Topology,
        root: NodeId,
        tree_id: int,
        parent: Sequence[Optional[NodeId]],
    ) -> None:
        self._topology = topology
        self.root = root
        self.tree_id = tree_id
        self.parent: Tuple[Optional[NodeId], ...] = tuple(parent)
        children: List[List[NodeId]] = [[] for _ in range(topology.n_nodes)]
        for node, par in enumerate(self.parent):
            if par is not None:
                children[par].append(node)
        self._children: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(c) for c in children
        )

    def children(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Next hops a broadcast packet is forwarded to from *node*."""
        return self._children[node]

    @property
    def children_table(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """:meth:`children` of every node, indexed by node id — what a
        forwarder that resolved the tree once indexes per hop."""
        return self._children

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All (parent, child) edges of the tree."""
        return [
            (par, node) for node, par in enumerate(self.parent) if par is not None
        ]

    def edge_links(self) -> List[LinkId]:
        """Link ids the tree uses (for load-balancing accounting)."""
        return [self._topology.link_id(p, c) for p, c in self.edges()]

    def n_edges(self) -> int:
        """Edge count; ``n_nodes - 1`` for a connected topology."""
        return sum(1 for p in self.parent if p is not None)

    def depth(self) -> int:
        """Maximum hops from the root to any covered node (broadcast time)."""
        depth = [0] * len(self.parent)
        best = 0
        # Parents always precede children in BFS construction order is not
        # guaranteed after tie-shuffling, so walk up instead.
        for node, par in enumerate(self.parent):
            if par is None:
                continue
            hops = 0
            cur = node
            while cur != self.root:
                nxt = self.parent[cur]
                if nxt is None:
                    raise BroadcastError(f"orphaned node {cur} in tree {self.tree_id}")
                cur = nxt
                hops += 1
                if hops > len(self.parent):
                    raise BroadcastError("cycle detected in broadcast tree")
            best = max(best, hops)
        return best

    def covers_all(self) -> bool:
        """True if every node other than the root has a parent."""
        return all(
            par is not None for node, par in enumerate(self.parent) if node != self.root
        )

    def is_shortest_path_tree(self) -> bool:
        """Validate the defining property: tree depth equals BFS distance."""
        dist = self._topology.distances_from(self.root)
        for node, par in enumerate(self.parent):
            if par is None:
                continue
            if dist[node] != dist[par] + 1:
                return False
        return True


def build_broadcast_tree(
    topology: Topology, root: NodeId, tree_id: int = 0, seed: int = 0
) -> BroadcastTree:
    """Build one shortest-path tree via BFS with seeded tie-breaking.

    Different ``(tree_id, seed)`` values shuffle which equal-distance parent
    each node attaches to, yielding structurally different trees with the
    same (optimal) depth.
    """
    rng = random.Random((seed << 20) ^ (root << 8) ^ tree_id)
    parent: List[Optional[NodeId]] = [None] * topology.n_nodes
    visited = [False] * topology.n_nodes
    visited[root] = True
    queue = deque([root])
    while queue:
        node = queue.popleft()
        neighbors = list(topology.neighbors(node))
        rng.shuffle(neighbors)
        for nxt in neighbors:
            if not visited[nxt]:
                visited[nxt] = True
                parent[nxt] = node
                queue.append(nxt)
    return BroadcastTree(topology, root, tree_id, parent)


def shared_broadcast_tree(
    topology: Topology, root: NodeId, tree_id: int = 0, seed: int = 0
) -> BroadcastTree:
    """The memoized :func:`build_broadcast_tree` result on *topology*.

    A tree is a pure function of ``(topology, root, tree_id, seed)`` — its
    tie-breaking stream is seeded from exactly those — so every FIB on the
    same topology object (each simulation run, each virtual shard, each
    per-node plane) resolves the same instance, in whatever order broadcasts
    first use them.  Like the shortest-path DAGs, the memo is the topology's
    own :attr:`~repro.topology.base.Topology.derived` table and is released
    with it.
    """
    derived = topology.derived
    key = ("broadcast-tree", seed, root, tree_id)
    tree = derived.get(key)
    if tree is None:
        tree = derived[key] = build_broadcast_tree(topology, root, tree_id, seed)
    return tree


def build_broadcast_trees(
    topology: Topology, root: NodeId, n_trees: int = 4, seed: int = 0
) -> List[BroadcastTree]:
    """Enumerate *n_trees* distinct-ish trees for one source."""
    if n_trees < 1:
        raise BroadcastError(f"need at least one tree, got {n_trees}")
    return [
        build_broadcast_tree(topology, root, tree_id=i, seed=seed)
        for i in range(n_trees)
    ]


class TreeSelector:
    """Sender-side tree choice, balancing broadcast load across links.

    The paper load-balances by rotating among a source's trees and skips
    trees that traverse failed links.  The rotation holds tree *ids* (the
    value a broadcast header carries), so choosing a tree never builds one;
    *start* staggers the rotation across senders (R2C2 nodes start at
    their own node id).
    """

    def __init__(self, tree_ids: Sequence[int], start: int = 0) -> None:
        if not tree_ids:
            raise BroadcastError("TreeSelector needs at least one tree")
        self._ids = list(tree_ids)
        self._next = start
        self._excluded: set = set()

    def exclude(self, tree_id: int) -> None:
        """Stop using a tree (e.g. it crosses a failed link)."""
        self._excluded.add(tree_id)
        if self._excluded.issuperset(self._ids):
            raise BroadcastError("all broadcast trees excluded")

    def restore(self, tree_id: int) -> None:
        """Allow a previously excluded tree again."""
        self._excluded.discard(tree_id)

    def choose(self) -> int:
        """Round-robin over non-excluded tree ids."""
        ids = self._ids
        for _ in range(len(ids)):
            tree_id = ids[self._next % len(ids)]
            self._next += 1
            if tree_id not in self._excluded:
                return tree_id
        raise BroadcastError("all broadcast trees excluded")
