"""k-ary n-cube torus and mesh topologies.

These are the fabrics the paper's rack-scale computers use: the AMD SeaMicro
and HP Moonshot racks are 3D tori, and the Figure 2 routing study runs on an
8-ary 2-cube (an 8x8 2D torus).  Node ids map to coordinates in row-major
order: for dims ``(a, b, c)`` the node at ``(x, y, z)`` has id
``x * b * c + y * c + z``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import TopologyError
from ..types import NodeId
from .base import DEFAULT_CAPACITY_BPS, DEFAULT_LATENCY_NS, Topology


def _row_major_strides(dims: Sequence[int]) -> List[int]:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


class _CoordinateTopology(Topology):
    """Shared coordinate machinery for torus and mesh."""

    def __init__(self, dims_tuple: Tuple[int, ...], edges, capacity_bps, latency_ns, name):
        self._dims = dims_tuple
        self._strides = _row_major_strides(dims_tuple)
        n_nodes = 1
        for d in dims_tuple:
            n_nodes *= d
        super().__init__(n_nodes, edges, capacity_bps=capacity_bps, latency_ns=latency_ns, name=name)

    @property
    def dims(self) -> Tuple[int, ...]:
        return self._dims

    def coordinates(self, node: NodeId) -> Tuple[int, ...]:
        self._check_node(node)
        coords = []
        for stride, size in zip(self._strides, self._dims):
            coords.append((node // stride) % size)
        return tuple(coords)

    def node_at(self, coords: Sequence[int]) -> NodeId:
        if len(coords) != len(self._dims):
            raise TopologyError(f"expected {len(self._dims)} coordinates, got {len(coords)}")
        node = 0
        for c, stride, size in zip(coords, self._strides, self._dims):
            if not (0 <= c < size):
                raise TopologyError(f"coordinate {c} outside 0..{size - 1}")
            node += c * stride
        return node


def _validate_dims(dims: Sequence[int], kind: str) -> Tuple[int, ...]:
    dims_tuple = tuple(int(d) for d in dims)
    if not dims_tuple:
        raise TopologyError(f"{kind} needs at least one dimension")
    if any(d < 2 for d in dims_tuple):
        raise TopologyError(f"every {kind} dimension must be >= 2, got {dims_tuple}")
    return dims_tuple


class TorusTopology(_CoordinateTopology):
    """An n-dimensional torus (k-ary n-cube when all dims are equal).

    Every node connects to its ``+1`` and ``-1`` neighbor (mod k) in each
    dimension.  A dimension of size two contributes a single neighbor (the
    ``+1`` and ``-1`` wraps coincide).

    Args:
        dims: Dimension sizes, e.g. ``(8, 8, 8)`` for a 512-node 3D torus.
    """

    def __init__(
        self,
        dims: Sequence[int],
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
    ) -> None:
        dims_tuple = _validate_dims(dims, "torus")
        strides = _row_major_strides(dims_tuple)
        n_nodes = 1
        for d in dims_tuple:
            n_nodes *= d

        edges = set()
        for node in range(n_nodes):
            coords = []
            for stride, size in zip(strides, dims_tuple):
                coords.append((node // stride) % size)
            for axis, size in enumerate(dims_tuple):
                for delta in (1, -1):
                    nxt = list(coords)
                    nxt[axis] = (nxt[axis] + delta) % size
                    other = sum(c * s for c, s in zip(nxt, strides))
                    if other != node:
                        edges.add((node, other))

        name = "torus(" + "x".join(str(d) for d in dims_tuple) + ")"
        super().__init__(dims_tuple, sorted(edges), capacity_bps, latency_ns, name)

    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Closed-form torus distance: per-dimension ring distance, summed."""
        a = self.coordinates(src)
        b = self.coordinates(dst)
        total = 0
        for ca, cb, size in zip(a, b, self._dims):
            delta = abs(ca - cb)
            total += min(delta, size - delta)
        return total


class MeshTopology(_CoordinateTopology):
    """An n-dimensional mesh: a torus without the wraparound links."""

    def __init__(
        self,
        dims: Sequence[int],
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
    ) -> None:
        dims_tuple = _validate_dims(dims, "mesh")
        strides = _row_major_strides(dims_tuple)
        n_nodes = 1
        for d in dims_tuple:
            n_nodes *= d

        edges = []
        for node in range(n_nodes):
            coords = []
            for stride, size in zip(strides, dims_tuple):
                coords.append((node // stride) % size)
            for axis, size in enumerate(dims_tuple):
                if coords[axis] + 1 < size:
                    other = node + strides[axis]
                    edges.append((node, other))
                    edges.append((other, node))

        name = "mesh(" + "x".join(str(d) for d in dims_tuple) + ")"
        super().__init__(dims_tuple, edges, capacity_bps, latency_ns, name)

    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Closed-form mesh (Manhattan) distance."""
        a = self.coordinates(src)
        b = self.coordinates(dst)
        return sum(abs(ca - cb) for ca, cb in zip(a, b))
