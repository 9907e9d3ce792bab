"""Binary hypercube topology.

Included because hypercubes are the other classic direct-connect fabric from
the interconnection-networks literature the paper builds on; they exercise
the routing and congestion-control layers with a different degree/diameter
trade-off than tori.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import TopologyError
from ..types import NodeId
from .base import DEFAULT_CAPACITY_BPS, DEFAULT_LATENCY_NS, Topology


class HypercubeTopology(Topology):
    """An *n*-dimensional binary hypercube with ``2**n`` nodes.

    Node ids are interpreted as bit strings; two nodes are adjacent iff their
    ids differ in exactly one bit.
    """

    def __init__(
        self,
        n_dims: int,
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
    ) -> None:
        if n_dims < 1:
            raise TopologyError(f"hypercube needs n_dims >= 1, got {n_dims}")
        self._n_dims = n_dims
        n_nodes = 1 << n_dims
        edges = []
        for node in range(n_nodes):
            for bit in range(n_dims):
                other = node ^ (1 << bit)
                edges.append((node, other))
        super().__init__(
            n_nodes,
            edges,
            capacity_bps=capacity_bps,
            latency_ns=latency_ns,
            name=f"hypercube({n_dims})",
        )

    @property
    def dims(self) -> Tuple[int, ...]:
        """A hypercube is a 2-ary n-cube: n dimensions of size two."""
        return (2,) * self._n_dims

    def coordinates(self, node: NodeId) -> Tuple[int, ...]:
        """Bit vector of *node*, most significant bit first."""
        self._check_node(node)
        return tuple((node >> (self._n_dims - 1 - i)) & 1 for i in range(self._n_dims))

    def node_at(self, coords: Sequence[int]) -> NodeId:
        if len(coords) != self._n_dims:
            raise TopologyError(f"expected {self._n_dims} coordinates, got {len(coords)}")
        node = 0
        for bit in coords:
            if bit not in (0, 1):
                raise TopologyError(f"hypercube coordinates are bits, got {bit}")
            node = (node << 1) | bit
        return node

    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Hamming distance between the two node ids."""
        self._check_node(src)
        self._check_node(dst)
        return bin(src ^ dst).count("1")
