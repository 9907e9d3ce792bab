"""Dynamic programs over shortest-path DAGs.

All link-weight computations reduce to one primitive: propagate an injection
of probability mass through the minimal DAG toward a destination, splitting
uniformly over the minimal next-hops at every node ("per-hop spraying", the
behaviour of randomized packet spraying).  Because the propagation is linear
in the injection, a single pass also yields aggregate quantities such as the
Valiant phase-two weights (uniform injection at every node toward ``dst``).

Weights are returned as plain ``{link_id: fraction}`` dicts; the congestion
controller converts them to sparse vectors.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from ..errors import RoutingError
from ..topology.base import Topology
from ..topology.paths import shared_dag
from ..types import LinkId, NodeId


def spray_link_weights(
    topology: Topology, src: NodeId, dst: NodeId
) -> Dict[LinkId, float]:
    """Per-link traversal probability under per-hop uniform spraying.

    A packet at node *u* picks uniformly among *u*'s minimal next-hops
    toward *dst*.  Returns the probability each directed link is traversed;
    probabilities on the links out of a node sum to the probability of
    visiting that node.
    """
    return spray_injection_weights(topology, dst, {src: 1.0})


def spray_injection_weights(
    topology: Topology, dst: NodeId, injection: Mapping[NodeId, float]
) -> Dict[LinkId, float]:
    """Propagate an arbitrary *injection* of mass toward *dst* by spraying.

    ``injection`` maps nodes to non-negative mass inserted at that node; mass
    injected at ``dst`` itself is absorbed immediately.  Linearity makes this
    the workhorse for Valiant phase aggregation: a uniform injection gives
    the aggregate phase-two weights in a single O(V + E) sweep.

    The propagation walks distance buckets farthest-first, so every node is
    expanded exactly once, after all of its upstream mass has arrived.
    """
    dag = shared_dag(topology, dst)
    buckets: Dict[int, Dict[NodeId, float]] = {}
    max_dist = 0
    for node, amount in injection.items():
        if amount < 0:
            raise RoutingError(f"negative injection {amount} at node {node}")
        if amount == 0 or node == dst:
            continue
        if dag.dist[node] < 0:
            raise RoutingError(f"{dst} unreachable from {node}")
        layer = buckets.setdefault(dag.dist[node], {})
        layer[node] = layer.get(node, 0.0) + amount
        max_dist = max(max_dist, dag.dist[node])

    weights: Dict[LinkId, float] = {}
    for dist in range(max_dist, 0, -1):
        layer = buckets.pop(dist, None)
        if not layer:
            continue
        next_layer = buckets.setdefault(dist - 1, {})
        for node, amount in layer.items():
            hops = dag.next_hops(node)
            share = amount / len(hops)
            for nxt in hops:
                link = topology.link_id(node, nxt)
                weights[link] = weights.get(link, 0.0) + share
                if nxt != dst:
                    next_layer[nxt] = next_layer.get(nxt, 0.0) + share
    return weights


def sample_spray_path(
    topology: Topology, src: NodeId, dst: NodeId, rng: random.Random
) -> List[NodeId]:
    """Draw one minimal path by per-hop uniform choices (data plane of RPS)."""
    if src == dst:
        return [src]
    dag = shared_dag(topology, dst)
    if dag.dist[src] < 0:
        raise RoutingError(f"{dst} unreachable from {src}")
    path = [src]
    node = src
    while node != dst:
        hops = dag.next_hops(node)
        # choice draws what randrange(len(hops)) did; a lone hop draws none.
        node = rng.choice(hops) if len(hops) > 1 else hops[0]
        path.append(node)
    return path


def deterministic_minimal_path(
    topology: Topology, src: NodeId, dst: NodeId
) -> List[NodeId]:
    """The lowest-port minimal path (deterministic single-path fallback)."""
    if src == dst:
        return [src]
    dag = shared_dag(topology, dst)
    if dag.dist[src] < 0:
        raise RoutingError(f"{dst} unreachable from {src}")
    path = [src]
    node = src
    while node != dst:
        node = dag.next_hops(node)[0]
        path.append(node)
    return path


def path_weights(topology: Topology, path) -> Dict[LinkId, float]:
    """Weights of a single deterministic path: 1.0 on every traversed link."""
    weights: Dict[LinkId, float] = {}
    for i in range(len(path) - 1):
        link = topology.link_id(path[i], path[i + 1])
        weights[link] = weights.get(link, 0.0) + 1.0
    return weights


def merge_weights(
    *weight_maps: Mapping[LinkId, float], scales=None
) -> Dict[LinkId, float]:
    """Linear combination of weight maps (defaults to plain sum)."""
    if scales is None:
        scales = [1.0] * len(weight_maps)
    if len(scales) != len(weight_maps):
        raise RoutingError("merge_weights: scales and maps length mismatch")
    out: Dict[LinkId, float] = {}
    for weights, scale in zip(weight_maps, scales):
        if scale == 0.0:
            continue
        for link, value in weights.items():
            out[link] = out.get(link, 0.0) + scale * value
    return out
