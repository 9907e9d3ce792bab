"""Classic interconnection-network traffic patterns (paper Figure 2).

A :class:`TrafficPattern` maps a topology to a *traffic matrix*: for every
source, how its unit injection rate is split across destinations.  The
patterns here are the standard benchmark set from Dally & Towles [20] that
the Figure 2 table evaluates: uniform, nearest neighbour, bit complement,
transpose and tornado (worst-case patterns are computed, not fixed — see
:mod:`~repro.workloads.worstcase`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

from ..errors import ReproError
from ..topology.base import Topology
from ..topology.composed import ComposedFabric
from ..types import NodeId

#: A traffic matrix: ``{(src, dst): fraction}`` with per-source fractions
#: summing to at most one (a source's total injection rate is normalized).
TrafficMatrix = Dict[Tuple[NodeId, NodeId], float]


class TrafficPattern(ABC):
    """A named mapping from topology to normalized traffic matrix."""

    name: str = "abstract"

    @abstractmethod
    def matrix(self, topology: Topology) -> TrafficMatrix:
        """The traffic matrix of this pattern on *topology*."""

    def pairs(self, topology: Topology) -> List[Tuple[NodeId, NodeId]]:
        """The communicating pairs (matrix support)."""
        return [pair for pair, frac in self.matrix(topology).items() if frac > 0]

    def validate(self, topology: Topology) -> None:
        """Raise if per-source fractions exceed one or are negative."""
        per_source: Dict[NodeId, float] = {}
        for (src, dst), frac in self.matrix(topology).items():
            if frac < 0:
                raise ReproError(f"negative traffic fraction for ({src}, {dst})")
            if src == dst and frac > 0:
                raise ReproError(f"self-traffic for node {src}")
            per_source[src] = per_source.get(src, 0.0) + frac
        for src, total in per_source.items():
            if total > 1.0 + 1e-9:
                raise ReproError(f"node {src} injects {total} > 1.0")


def _require_dims(topology: Topology, pattern: str) -> Tuple[int, ...]:
    dims = topology.dims
    if dims is None:
        raise ReproError(f"{pattern} traffic needs a coordinate topology")
    return dims


class UniformPattern(TrafficPattern):
    """Every source spreads its injection evenly over all other nodes."""

    name = "uniform"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        n = topology.n_nodes
        if n < 2:
            return {}
        frac = 1.0 / (n - 1)
        return {
            (src, dst): frac
            for src in topology.nodes()
            for dst in topology.nodes()
            if src != dst
        }


class NearestNeighborPattern(TrafficPattern):
    """Each node splits its injection evenly over its topological neighbors.

    On an 8-ary 2-cube every node sends a quarter of its traffic one hop in
    each of the four directions, which is how minimal routing reaches the
    table's throughput of 4x capacity.
    """

    name = "nearest-neighbor"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        out: TrafficMatrix = {}
        for src in topology.nodes():
            neighbors = topology.neighbors(src)
            if not neighbors:
                continue
            frac = 1.0 / len(neighbors)
            for dst in neighbors:
                out[(src, dst)] = out.get((src, dst), 0.0) + frac
        return out


class BitComplementPattern(TrafficPattern):
    """``dst_i = (k_i - 1) - src_i`` in every dimension.

    For power-of-two radices this complements every address bit — the
    classic adversary for dimension-order routing on meshes.
    """

    name = "bit-complement"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        dims = _require_dims(topology, self.name)
        out: TrafficMatrix = {}
        for src in topology.nodes():
            coords = topology.coordinates(src)
            dst = topology.node_at([k - 1 - c for c, k in zip(coords, dims)])
            if dst != src:
                out[(src, dst)] = 1.0
        return out


class TransposePattern(TrafficPattern):
    """Coordinates reversed: ``(x, y) -> (y, x)`` (matrix-transpose traffic).

    Requires all dimensions to have equal radix.
    """

    name = "transpose"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        dims = _require_dims(topology, self.name)
        if len(set(dims)) != 1:
            raise ReproError("transpose traffic needs equal radix in all dimensions")
        out: TrafficMatrix = {}
        for src in topology.nodes():
            coords = topology.coordinates(src)
            dst = topology.node_at(tuple(reversed(coords)))
            if dst != src:
                out[(src, dst)] = 1.0
        return out


class TornadoPattern(TrafficPattern):
    """``dst = src + (ceil(k/2) - 1)`` around the first dimension's ring.

    All traffic circulates the same way around the ring, defeating any
    routing that balances only between the two ring directions.
    """

    name = "tornado"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        dims = _require_dims(topology, self.name)
        k = dims[0]
        shift = (k + 1) // 2 - 1
        out: TrafficMatrix = {}
        for src in topology.nodes():
            coords = list(topology.coordinates(src))
            coords[0] = (coords[0] + shift) % k
            dst = topology.node_at(coords)
            if dst != src:
                out[(src, dst)] = 1.0
        return out


class BitReversePattern(TrafficPattern):
    """Destination address is the bit-reversal of the source address.

    Defined for topologies whose node count is a power of two; a classic
    FFT-communication pattern.
    """

    name = "bit-reverse"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        n = topology.n_nodes
        bits = n.bit_length() - 1
        if (1 << bits) != n:
            raise ReproError("bit-reverse traffic needs a power-of-two node count")
        out: TrafficMatrix = {}
        for src in topology.nodes():
            dst = int(format(src, f"0{bits}b")[::-1], 2)
            if dst != src:
                out[(src, dst)] = 1.0
        return out


class RackShiftPattern(TrafficPattern):
    """Every host sends to its same-local-id peer in the next rack.

    The multi-rack analogue of tornado traffic: all load crosses rack
    boundaries in the same rotational direction, stressing the gateway tier
    of composed fabrics (see :mod:`repro.topology.synth`).  Requires a
    :class:`~repro.topology.composed.ComposedFabric`; its switches neither
    send nor receive.  The matrix support is O(N) — one pair per host — which
    keeps Fig. 2-style analysis feasible at 10k nodes where uniform's O(N²)
    support is not.
    """

    name = "rack-shift"

    def matrix(self, topology: Topology) -> TrafficMatrix:
        if not isinstance(topology, ComposedFabric):
            raise ReproError("rack-shift traffic needs a multi-rack fabric")
        n_racks, rack_size = topology.n_racks, topology.rack_size
        out: TrafficMatrix = {}
        for src in topology.hosts():
            rack, local = divmod(src, rack_size)
            dst = ((rack + 1) % n_racks) * rack_size + local
            if dst != src:
                out[(src, dst)] = 1.0
        return out


class PermutationPattern(TrafficPattern):
    """An explicit permutation traffic matrix (e.g. from worst-case search)."""

    name = "permutation"

    def __init__(self, mapping: Dict[NodeId, NodeId], name: str = "permutation") -> None:
        self.name = name
        self._mapping = dict(mapping)

    def matrix(self, topology: Topology) -> TrafficMatrix:
        out: TrafficMatrix = {}
        for src, dst in self._mapping.items():
            if not (0 <= src < topology.n_nodes and 0 <= dst < topology.n_nodes):
                raise ReproError(f"pair ({src}, {dst}) outside topology")
            if src != dst:
                out[(src, dst)] = 1.0
        return out


#: The Figure 2 benchmark patterns, by name.
STANDARD_PATTERNS = {
    pattern.name: pattern
    for pattern in (
        UniformPattern(),
        NearestNeighborPattern(),
        BitComplementPattern(),
        TransposePattern(),
        TornadoPattern(),
        BitReversePattern(),
    )
}

#: Patterns defined only on composed multi-rack fabrics (kept out of
#: STANDARD_PATTERNS, whose patterns all apply to single-rack topologies).
COMPOSED_PATTERNS = {pattern.name: pattern for pattern in (RackShiftPattern(),)}
