"""Shortest-path machinery shared by routing and congestion control.

The key structure is the *shortest-path DAG* toward a destination: the
subgraph of links ``u -> v`` with ``dist(u, dst) == dist(v, dst) + 1``.
Every minimal route from any source to ``dst`` is a path in this DAG, so
path counting, path enumeration and the per-link weight distributions used
by R2C2's rate computation (§3.3) can all be done with dynamic programming
over it — no exponential path enumeration, which matters because the paper
notes an average pair in a modest torus already has over a thousand minimal
paths.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import TopologyError
from ..types import NodeId
from .base import Topology


class ShortestPathDag:
    """The DAG of minimal next-hops toward a fixed destination.

    Attributes:
        dst: The destination all paths lead to.
        dist: ``dist[u]`` is the hop distance from ``u`` to ``dst``
            (``-1`` if unreachable).
    """

    def __init__(self, topology: Topology, dst: NodeId) -> None:
        self._topology = topology
        self.dst = dst
        self.dist: List[int] = topology.distances_to(dst)
        self._next_hops: Dict[NodeId, Tuple[NodeId, ...]] = {}

    def next_hops(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbors of *node* that lie on some minimal path to the dst."""
        cached = self._next_hops.get(node)
        if cached is not None:
            return cached
        if self.dist[node] < 0:
            raise TopologyError(f"{self.dst} unreachable from {node}")
        hops = tuple(
            nxt
            for nxt in self._topology.neighbors(node)
            if self.dist[nxt] == self.dist[node] - 1
        )
        self._next_hops[node] = hops
        return hops


def shared_dag(topology: Topology, dst: NodeId) -> ShortestPathDag:
    """The memoized shortest-path DAG toward *dst* on *topology*.

    Per-packet path sampling builds a DAG per call when constructed
    directly — one BFS plus a cold next-hop memo for every data packet.
    Sharing the instance per ``(topology, dst)`` amortizes both across the
    whole simulation.  The memo is the topology's own
    :attr:`~repro.topology.base.Topology.derived` table: a DAG points back
    at its topology, so it must be released with it, and topologies are
    immutable after construction, so it never needs invalidation.
    """
    derived = topology.derived
    key = ("dag", dst)
    dag = derived.get(key)
    if dag is None:
        dag = derived[key] = ShortestPathDag(topology, dst)
    return dag


def count_shortest_paths(topology: Topology, src: NodeId, dst: NodeId) -> int:
    """Number of distinct minimal paths from *src* to *dst*.

    Computed by dynamic programming over the shortest-path DAG, so it is
    exact even when the count is astronomically large (Python integers).
    For a displacement of ``(3, 3, 3)`` in a large 3D torus this returns the
    paper's headline figure of 1,680 paths (§2.2.2).
    """
    if src == dst:
        return 1
    dag = ShortestPathDag(topology, dst)
    if dag.dist[src] < 0:
        return 0
    counts: Dict[NodeId, int] = {dst: 1}

    def count(node: NodeId) -> int:
        cached = counts.get(node)
        if cached is not None:
            return cached
        total = sum(count(nxt) for nxt in dag.next_hops(node))
        counts[node] = total
        return total

    # Iterative accumulation by increasing distance avoids deep recursion on
    # large topologies.
    by_dist: Dict[int, List[NodeId]] = {}
    for node in topology.nodes():
        d = dag.dist[node]
        if 0 <= d <= dag.dist[src]:
            by_dist.setdefault(d, []).append(node)
    for d in sorted(by_dist):
        if d == 0:
            continue
        for node in by_dist[d]:
            counts[node] = sum(counts.get(nxt, 0) for nxt in dag.next_hops(node))
    return counts.get(src, 0)


def enumerate_shortest_paths(
    topology: Topology, src: NodeId, dst: NodeId, limit: int = 1000
) -> Iterator[List[NodeId]]:
    """Yield minimal paths from *src* to *dst*, up to *limit* of them.

    Deterministic order (port order at each branch).  Intended for tests and
    small examples; production code should use DAG-based DP instead.
    """
    if limit <= 0:
        return
    if src == dst:
        yield [src]
        return
    dag = ShortestPathDag(topology, dst)
    if dag.dist[src] < 0:
        return
    yielded = 0
    stack: List[Tuple[NodeId, List[NodeId]]] = [(src, [src])]
    while stack and yielded < limit:
        node, path = stack.pop()
        if node == dst:
            yield path
            yielded += 1
            continue
        # Reverse so that the smallest-port branch is explored first.
        for nxt in reversed(dag.next_hops(node)):
            stack.append((nxt, path + [nxt]))


def is_minimal_path(topology: Topology, path: Sequence[NodeId]) -> bool:
    """True if *path* is a valid shortest path on *topology*."""
    if len(path) < 1:
        return False
    src, dst = path[0], path[-1]
    if topology.distance(src, dst) != len(path) - 1:
        return False
    return is_valid_path(topology, path)


def is_valid_path(topology: Topology, path: Sequence[NodeId]) -> bool:
    """True if consecutive nodes of *path* are joined by links."""
    if len(path) == 0:
        return False
    return all(
        topology.has_link(path[i], path[i + 1]) for i in range(len(path) - 1)
    )


def path_links(topology: Topology, path: Sequence[NodeId]) -> List[int]:
    """Link ids traversed by *path*, in order."""
    return [topology.link_id(path[i], path[i + 1]) for i in range(len(path) - 1)]
