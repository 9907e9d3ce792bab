"""Topology partitioning for sharded simulation (see :mod:`repro.distsim`).

A :class:`Partition` splits a topology's nodes into ``k`` disjoint, jointly
exhaustive shards and exposes the *cut* — the directed links whose endpoints
live in different shards.  The conservative synchronization protocol derives
its lookahead from the minimum cut-link latency: a shard that has executed up
to virtual time ``t`` cannot influence a remote shard before ``t +
lookahead``, so all shards may safely run ``lookahead`` beyond the global
minimum next-event time.

Cut placement never affects simulation *results* (the sharded engine is
exact regardless of the cut); it only affects how many rounds and boundary
messages the run takes, via cut size and shard balance.  Strategies:

* coordinate topologies (torus/mesh/hypercube): contiguous slabs along the
  longest dimension — the classic plane cut, minimizing cut size for
  row-major workloads;
* folded Clos: hosts stay with their leaf, leaves are split into contiguous
  ranges, spines into contiguous ranges — the subtree cut (only leaf-spine
  links cross);
* multi-rack fabrics (:class:`~repro.topology.composed.ComposedFabric`):
  racks are grouped into contiguous ranges so only gateway cables cross
  shards and the conservative window's lookahead becomes the gateway
  latency — the natural minimum cut of a composed graph;
* anything else (including the plain :class:`~repro.topology.Topology`
  failure views return): contiguous node-id blocks.

Partitions compose with failure views in either order: partitioning a
degraded topology sees only the surviving links, and the assignment depends
only on node ids/coordinates, which views preserve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import Link, NodeId
from .base import Topology
from .clos import FoldedClosTopology
from .composed import ComposedFabric


class Partition:
    """An immutable assignment of every node to one of ``k`` shards."""

    def __init__(self, topology: Topology, assignment: Sequence[int], k: int) -> None:
        if len(assignment) != topology.n_nodes:
            raise TopologyError(
                f"assignment covers {len(assignment)} nodes, topology has {topology.n_nodes}"
            )
        shards: List[List[NodeId]] = [[] for _ in range(k)]
        for node, shard in enumerate(assignment):
            if not (0 <= shard < k):
                raise TopologyError(f"node {node} assigned to shard {shard}, k={k}")
            shards[shard].append(node)
        for shard, members in enumerate(shards):
            if not members:
                raise TopologyError(f"shard {shard} of {k} is empty")
        self._topology = topology
        self._k = k
        self._assignment: Tuple[int, ...] = tuple(assignment)
        self._shards: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(members) for members in shards
        )
        self._cut: Optional[Tuple[Link, ...]] = None

    @property
    def k(self) -> int:
        """Number of shards."""
        return self._k

    @property
    def assignment(self) -> Tuple[int, ...]:
        """Shard id per node, indexed by node id."""
        return self._assignment

    def shard_of(self, node: NodeId) -> int:
        """Shard owning *node*."""
        return self._assignment[node]

    def nodes_of(self, shard: int) -> Tuple[NodeId, ...]:
        """Nodes owned by *shard*, in ascending id order."""
        return self._shards[shard]

    def shards(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """All shards' node tuples, indexed by shard id."""
        return self._shards

    def cut_edges(self) -> Tuple[Link, ...]:
        """Directed links crossing shard boundaries, in global link order."""
        if self._cut is None:
            assignment = self._assignment
            self._cut = tuple(
                link
                for link in self._topology.links
                if assignment[link.src] != assignment[link.dst]
            )
        return self._cut

    def lookahead_ns(self) -> Optional[int]:
        """Minimum latency over cut links; ``None`` when the cut is empty.

        An empty cut (k=1, or shards in disconnected components) means the
        shards can never influence each other, i.e. infinite lookahead.
        """
        cut = self.cut_edges()
        if not cut:
            return None
        return min(link.latency_ns for link in cut)


def partition_topology(topology: Topology, k: int, strategy: str = "auto") -> Partition:
    """Split *topology* into *k* shards using the requested *strategy*.

    Strategies: ``"auto"`` (pick per topology type), ``"slab"`` (contiguous
    ranges along the longest coordinate dimension; requires coordinates),
    ``"subtree"`` (folded-Clos leaf subtrees; requires a Clos), ``"rack"``
    (contiguous rack ranges; requires a multi-rack fabric), ``"blocks"``
    (contiguous node-id ranges; always available).
    """
    if k <= 0:
        raise TopologyError(f"shard count must be positive, got {k}")
    if k > topology.n_nodes:
        raise TopologyError(
            f"cannot split {topology.n_nodes} nodes into {k} shards"
        )

    if strategy == "auto":
        if isinstance(topology, ComposedFabric):
            strategy = "rack"
        elif isinstance(topology, FoldedClosTopology):
            strategy = "subtree"
        elif topology.dims is not None:
            strategy = "slab"
        else:
            strategy = "blocks"

    if strategy == "slab":
        assignment = _slab_assignment(topology, k)
    elif strategy == "subtree":
        assignment = _subtree_assignment(topology, k)
    elif strategy == "rack":
        assignment = _rack_assignment(topology, k)
    elif strategy == "blocks":
        assignment = _block_assignment(topology.n_nodes, k)
    else:
        raise TopologyError(f"unknown partition strategy {strategy!r}")
    return Partition(topology, assignment, k)


def _block_assignment(n_nodes: int, k: int) -> List[int]:
    """Contiguous id blocks, balanced to within one node."""
    return [node * k // n_nodes for node in range(n_nodes)]


def _slab_assignment(topology: Topology, k: int) -> List[int]:
    """Contiguous coordinate ranges along the longest dimension."""
    dims = topology.dims
    if dims is None:
        raise TopologyError(f"{topology.name} has no coordinates for a slab cut")
    axis = max(range(len(dims)), key=lambda i: dims[i])
    if k > dims[axis]:
        # More shards than planes along the longest axis: fall back to id
        # blocks, which for row-major coordinate topologies are still
        # spatially contiguous boxes.
        return _block_assignment(topology.n_nodes, k)
    size = dims[axis]
    return [
        topology.coordinates(node)[axis] * k // size for node in topology.nodes()
    ]


def _rack_assignment(topology: Topology, k: int) -> List[int]:
    """Rack-aligned cut: racks grouped into ``k`` contiguous ranges.

    Only gateway cables cross shards, so the conservative window's
    lookahead equals the gateway latency.  The switches of a
    :class:`~repro.topology.composed.ComposedFabric` belong to no rack and
    are spread evenly over the shards; every link of theirs is a gateway
    cable, so the cut stays inside the gateway tier.  With more shards than
    racks a rack would have to straddle shards, so we fall back to id
    blocks — which for rack-contiguous node ids is still a near-rack-aligned
    cut.

    Note failure views return plain :class:`Topology` objects without rack
    structure; "auto" then degrades to blocks, which preserves the same
    contiguous-id structure.
    """
    if not isinstance(topology, ComposedFabric):
        raise TopologyError(f"{topology.name} is not a multi-rack fabric")
    n_racks = topology.n_racks
    if k > n_racks:
        return _block_assignment(topology.n_nodes, k)
    n_switches = topology.n_switches
    return [topology.rack_of(host) * k // n_racks for host in topology.hosts()] + [
        rank * k // n_switches for rank in range(n_switches)
    ]


def _subtree_assignment(topology: Topology, k: int) -> List[int]:
    """Folded-Clos cut: hosts follow their leaf, spines split evenly.

    Leaves are grouped into ``k`` contiguous ranges so only leaf-spine links
    cross shards; if there are fewer leaves than shards the topology is too
    small for a subtree cut and we fall back to id blocks.
    """
    if not isinstance(topology, FoldedClosTopology):
        raise TopologyError(f"{topology.name} is not a folded Clos")
    n_leaves = topology.n_leaves
    if k > n_leaves:
        return _block_assignment(topology.n_nodes, k)
    assignment = [0] * topology.n_nodes
    for host in topology.hosts():
        leaf_rank = topology.leaf_of(host) - topology.n_hosts
        assignment[host] = leaf_rank * k // n_leaves
    for rank in range(n_leaves):
        assignment[topology.n_hosts + rank] = rank * k // n_leaves
    n_spines = topology.n_spines
    spine_base = topology.n_hosts + n_leaves
    for rank in range(n_spines):
        assignment[spine_base + rank] = rank * k // n_spines if n_spines >= k else rank % k
    return assignment
