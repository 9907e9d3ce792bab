"""Bisection-capacity calculations.

The Figure 2 table reports routing throughput "as fraction of network
bisection capacity"; the SeaMicro rack is advertised by its 1.28 Tbps
bisection bandwidth.  This module provides closed forms for the regular
topologies plus a brute-force / spectral-partition fallback for arbitrary
graphs.
"""

from __future__ import annotations

import itertools

from ..errors import TopologyError
from .base import Topology
from .clos import FoldedClosTopology
from .composed import ComposedFabric
from .hypercube import HypercubeTopology
from .torus import MeshTopology, TorusTopology


def bisection_channel_count(topology: Topology) -> int:
    """Number of directed links crossing a best (balanced, minimal) bisection.

    Closed forms (directed-channel counts; each cable is two channels):

    * torus, dims ``(k0, .., kn)``: cutting the largest even dimension k in
      half severs ``2 * 2 * (N / k)`` directed channels (two cut planes due
      to wraparound, two directions each).
    * mesh: one cut plane, ``2 * (N / k)`` channels.
    * hypercube: ``N`` channels (N/2 cables in one bit dimension).
    * folded Clos: the leaf-spine stage, ``2 * n_leaves * n_spines / ...``—
      we cut hosts in half which severs half the leaf uplinks; for the
      standard definition we report the host-side bisection,
      ``n_spines * n_leaves`` directed channels when leaves are split evenly.

    For other graphs a brute-force minimum balanced cut is computed (only
    feasible for small node counts).
    """
    if isinstance(topology, TorusTopology):
        return _torus_bisection(topology)
    if isinstance(topology, MeshTopology):
        return _mesh_bisection(topology)
    if isinstance(topology, HypercubeTopology):
        return topology.n_nodes
    if isinstance(topology, FoldedClosTopology):
        # Splitting hosts evenly across leaves: traffic between halves uses
        # leaf->spine->leaf; the limiting stage is the spine stage, with
        # n_leaves * n_spines cables but only half usable by crossing
        # traffic in each direction.
        return topology.n_leaves * topology.n_spines
    return _brute_force_bisection(topology)


def bisection_bandwidth_bps(topology: Topology) -> float:
    """Aggregate capacity (bits/s) across the bisection, one direction summed
    with the other (i.e. counting every crossing directed channel once).

    Composed multi-rack fabrics (heterogeneous link capacities, too many
    nodes for the brute-force fallback) provide their own closed forms —
    see :meth:`repro.topology.composed.ComposedFabric.composed_bisection_bps`.
    """
    if isinstance(topology, ComposedFabric):
        return topology.composed_bisection_bps()
    return bisection_channel_count(topology) * topology.capacity_bps


def _largest_even_dim(dims) -> int:
    even = [d for d in dims if d % 2 == 0]
    if not even:
        raise TopologyError(
            f"bisection closed form needs at least one even dimension, got {dims}"
        )
    return max(even)


def _torus_bisection(topology: TorusTopology) -> int:
    k = _largest_even_dim(topology.dims)
    return 4 * topology.n_nodes // k


def _mesh_bisection(topology: MeshTopology) -> int:
    k = _largest_even_dim(topology.dims)
    return 2 * topology.n_nodes // k


def _brute_force_bisection(topology: Topology) -> int:
    """Exact minimum balanced-cut search; exponential, for tiny graphs only."""
    n = topology.n_nodes
    if n > 16:
        raise TopologyError(
            f"brute-force bisection limited to 16 nodes, topology has {n}"
        )
    if n % 2 != 0:
        raise TopologyError("bisection requires an even number of nodes")
    nodes = list(topology.nodes())
    best = None
    # Fix node 0 on side A to halve the search space.
    for rest in itertools.combinations(nodes[1:], n // 2 - 1):
        side_a = {0, *rest}
        crossing = sum(
            1
            for link in topology.links
            if (link.src in side_a) != (link.dst in side_a)
        )
        if best is None or crossing < best:
            best = crossing
    assert best is not None
    return best
