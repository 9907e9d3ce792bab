"""Single-path ECMP-style routing, the substrate for the TCP baseline.

Section 5.2 of the paper evaluates TCP over "an ECMP-like routing protocol,
which selects a single path between source and destination, based on the
hash of the flow ID", so that all packets of a flow stay in order while
different flows between the same endpoints can take different shortest
paths.  We reproduce exactly that: the flow id seeds a deterministic walk of
the minimal DAG, so the same flow always maps to the same path.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from ..topology.paths import shared_dag
from ..types import LinkId, NodeId
from .base import RoutingProtocol, register_protocol
from .weights import path_weights


def _mix(*values: int) -> int:
    """A small deterministic integer hash (splitmix64-style) for path picks."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h ^= (v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 27
    return h & 0xFFFFFFFFFFFFFFFF


@register_protocol
class EcmpSinglePath(RoutingProtocol):
    """Deterministic per-flow single shortest path chosen by flow-id hash."""

    name = "ecmp"
    protocol_id = 4
    minimal = True

    def __init__(self, topology) -> None:
        super().__init__(topology)
        self._path_cache: Dict[tuple, List[NodeId]] = {}

    def flow_path(self, src: NodeId, dst: NodeId, flow_id: int) -> List[NodeId]:
        """The (single, deterministic) path assigned to this flow, cached
        per flow for the packets of a finite simulation."""
        key = (src, dst, flow_id)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = self._path_cache[key] = self._walk(src, dst, flow_id)
        return cached

    def _walk(self, src: NodeId, dst: NodeId, flow_id: int) -> List[NodeId]:
        """The flow's path, walked down the minimal DAG by its hash."""
        self._check_endpoints(src, dst)
        if src == dst:
            return [src]
        dag = shared_dag(self._topology, dst)
        path = [src]
        node = src
        hop = 0
        while node != dst:
            hops = dag.next_hops(node)
            if len(hops) == 1:
                node = hops[0]
            else:
                node = hops[_mix(flow_id, src, dst, hop) % len(hops)]
            path.append(node)
            hop += 1
        return path

    def sample_path(
        self, src: NodeId, dst: NodeId, rng: random.Random, flow_id: int = 0
    ) -> List[NodeId]:
        return list(self.flow_path(src, dst, flow_id))

    def link_weights(
        self, src: NodeId, dst: NodeId, flow_id: int = 0
    ) -> Mapping[LinkId, float]:
        # Not cached here: the weight provider keeps the row for as long as
        # its flow lives, and a daemon sees an unbounded stream of flow ids.
        return path_weights(self._topology, self._walk(src, dst, flow_id))
