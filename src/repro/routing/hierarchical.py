"""Hierarchical routing across racks (paper §6).

A :class:`HierarchicalRouting` protocol routes inter-rack flows in three
segments — source rack to an egress gateway, across the gateway cable(s),
ingress gateway to the destination — and delegates intra-rack flows to a
plain intra-rack protocol (spraying by default).  Multiple parallel cables
between a rack pair are load-balanced per packet, which is exactly the
"finer-grain control over the inter-rack routing" the paper says the
switchless design enables.

:class:`HierarchicalWLB` and :class:`HierarchicalVLB` swap the intra-rack
legs for the paper's WLB / VLB protocols, computed once on the **rack
template** (local node ids) and *lifted* onto each rack through a
link-id translation table.  At fabric scale this is the difference between
memoizing DAGs on an 80-node rack and rebuilding them on a 10 000-node
composed graph — it is what makes Fig. 2-style channel-load analysis
feasible on synthesized fabrics (see :mod:`repro.topology.synth`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import RoutingError
from ..topology.composed import ComposedFabric
from ..types import LinkId, NodeId
from .base import RoutingProtocol, make_protocol, register_protocol
from .weights import merge_weights, sample_spray_path, spray_link_weights


@register_protocol
class HierarchicalRouting(RoutingProtocol):
    """Gateway-segmented routing on a switchless
    :class:`~repro.topology.composed.ComposedFabric`."""

    name = "hier"
    protocol_id = 6
    minimal = False
    #: Name of the intra-rack protocol run on the rack template, or ``None``
    #: for the legacy fabric-wide spray.  Template lifting assumes all racks
    #: are wired identically (always true for synthesized fabrics).
    intra: Optional[str] = None

    def __init__(self, topology) -> None:
        super().__init__(topology)
        if not isinstance(topology, ComposedFabric) or topology.n_switches:
            raise RoutingError(
                "hierarchical routing requires a switchless composed fabric "
                f"(host-to-host gateway cables), got {topology.name}"
            )
        self._fabric: ComposedFabric = topology
        # (rack_a, rack_b) -> list of (egress gateway in a, ingress in b).
        self._cables: Dict[Tuple[int, int], List[Tuple[NodeId, NodeId]]] = {}
        for link in topology.gateway_links():
            pair = (topology.rack_of(link.src), topology.rack_of(link.dst))
            self._cables.setdefault(pair, []).append((link.src, link.dst))
        self._weights_cache: Dict[tuple, Mapping[LinkId, float]] = {}
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        # Rack-graph adjacency in cable insertion order (BFS parent choice,
        # and hence legacy "hier" weights, must not change).
        self._rack_adjacency: Dict[int, List[int]] = {}
        for a, b in self._cables:
            self._rack_adjacency.setdefault(a, []).append(b)
        if self.intra is not None:
            self._template = topology.rack_topology(0)
            self._intra_protocol: Optional[RoutingProtocol] = make_protocol(
                self.intra, self._template
            )
            self._lift_tables: Dict[int, List[LinkId]] = {}
        else:
            self._intra_protocol = None

    def cables_between(self, rack_a: int, rack_b: int) -> List[Tuple[NodeId, NodeId]]:
        """The gateway cables leading from *rack_a* to *rack_b* (directed)."""
        cables = self._cables.get((rack_a, rack_b), [])
        if not cables:
            raise RoutingError(
                f"no direct cables from rack {rack_a} to rack {rack_b}; "
                "multi-hop rack routes are chosen via the rack graph"
            )
        return cables

    def _rack_route(self, src_rack: int, dst_rack: int) -> List[int]:
        """BFS over the rack-level graph (racks as vertices, cables as
        edges) — the inter-rack analogue of minimal routing."""
        if src_rack == dst_rack:
            return [src_rack]
        cached = self._route_cache.get((src_rack, dst_rack))
        if cached is not None:
            return cached
        adjacency = self._rack_adjacency
        frontier = [src_rack]
        parent = {src_rack: None}
        while frontier:
            nxt = []
            for rack in frontier:
                for neighbor in adjacency.get(rack, []):
                    if neighbor not in parent:
                        parent[neighbor] = rack
                        nxt.append(neighbor)
            if dst_rack in parent:
                break
            frontier = nxt
        if dst_rack not in parent:
            raise RoutingError(f"rack {dst_rack} unreachable from rack {src_rack}")
        route = [dst_rack]
        while parent[route[-1]] is not None:
            route.append(parent[route[-1]])
        result = list(reversed(route))
        self._route_cache[(src_rack, dst_rack)] = result
        return result

    # ------------------------------------------------------------------
    # Intra-rack legs (template-lifted when ``intra`` is set)
    # ------------------------------------------------------------------
    def _lift_table(self, rack: int) -> List[LinkId]:
        """Template link id -> fabric link id for one rack's copy."""
        table = self._lift_tables.get(rack)
        if table is None:
            fabric = self._fabric
            base = rack * fabric.rack_size
            table = [
                fabric.link_id(base + link.src, base + link.dst)
                for link in self._template.links
            ]
            self._lift_tables[rack] = table
        return table

    def _leg_weights(self, src: NodeId, dst: NodeId) -> Mapping[LinkId, float]:
        """Weights of an intra-rack leg between two global same-rack nodes."""
        fabric = self._fabric
        if self._intra_protocol is None:
            return spray_link_weights(fabric, src, dst)
        local = self._intra_protocol.link_weights(
            fabric.local_id(src), fabric.local_id(dst)
        )
        table = self._lift_table(fabric.rack_of(src))
        return {table[link_id]: weight for link_id, weight in local.items()}

    def _leg_path(
        self, src: NodeId, dst: NodeId, rng: random.Random
    ) -> List[NodeId]:
        """Sample an intra-rack leg between two global same-rack nodes."""
        fabric = self._fabric
        if self._intra_protocol is None:
            return sample_spray_path(fabric, src, dst, rng)
        base = fabric.rack_of(src) * fabric.rack_size
        local = self._intra_protocol.sample_path(
            fabric.local_id(src), fabric.local_id(dst), rng
        )
        return [base + node for node in local]

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def sample_path(
        self, src: NodeId, dst: NodeId, rng: random.Random, flow_id: int = 0
    ) -> List[NodeId]:
        self._check_endpoints(src, dst)
        if src == dst:
            return [src]
        fabric = self._fabric
        src_rack = fabric.rack_of(src)
        dst_rack = fabric.rack_of(dst)
        if src_rack == dst_rack:
            return self._leg_path(src, dst, rng)

        path = [src]
        here = src
        rack_route = self._rack_route(src_rack, dst_rack)
        for next_rack in rack_route[1:]:
            cables = self.cables_between(fabric.rack_of(here), next_rack)
            egress, ingress = cables[rng.randrange(len(cables))]
            if here != egress:
                leg = self._leg_path(here, egress, rng)
                path.extend(leg[1:])
            path.append(ingress)
            here = ingress
        if here != dst:
            leg = self._leg_path(here, dst, rng)
            path.extend(leg[1:])
        return path

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def link_weights(
        self, src: NodeId, dst: NodeId, flow_id: int = 0
    ) -> Mapping[LinkId, float]:
        self._check_endpoints(src, dst)
        key = (src, dst)
        cached = self._weights_cache.get(key)
        if cached is not None:
            return cached
        fabric = self._fabric
        if src == dst:
            weights: Mapping[LinkId, float] = {}
        elif fabric.rack_of(src) == fabric.rack_of(dst):
            weights = self._leg_weights(src, dst)
        else:
            weights = self._inter_rack_weights(src, dst)
        self._weights_cache[key] = weights
        return weights

    def _inter_rack_weights(self, src: NodeId, dst: NodeId) -> Mapping[LinkId, float]:
        """Expected weights: average over per-hop uniform cable choices.

        Mass enters a rack at each possible ingress with some probability;
        each segment's spray weights are composed by linearity, like the
        Valiant phase decomposition.
        """
        fabric = self._fabric
        rack_route = self._rack_route(fabric.rack_of(src), fabric.rack_of(dst))
        maps = []
        scales = []
        # Distribution over the node where the flow currently "is".
        location: Dict[NodeId, float] = {src: 1.0}
        for next_rack in rack_route[1:]:
            next_location: Dict[NodeId, float] = {}
            for here, mass in location.items():
                cables = self.cables_between(fabric.rack_of(here), next_rack)
                share = mass / len(cables)
                for egress, ingress in cables:
                    if here != egress:
                        maps.append(self._leg_weights(here, egress))
                        scales.append(share)
                    maps.append({fabric.link_id(egress, ingress): 1.0})
                    scales.append(share)
                    next_location[ingress] = next_location.get(ingress, 0.0) + share
            location = next_location
        for here, mass in location.items():
            if here != dst:
                maps.append(self._leg_weights(here, dst))
                scales.append(mass)
        return merge_weights(*maps, scales=scales)


@register_protocol
class HierarchicalWLB(HierarchicalRouting):
    """Hierarchical routing whose intra-rack legs use WLB (Singh et al.),
    computed on the rack template and lifted onto every rack."""

    name = "hier_wlb"
    protocol_id = 7
    intra = "wlb"


@register_protocol
class HierarchicalVLB(HierarchicalRouting):
    """Hierarchical routing whose intra-rack legs use VLB (Valiant),
    computed on the rack template and lifted onto every rack."""

    name = "hier_vlb"
    protocol_id = 8
    intra = "vlb"
