"""Composed multi-rack fabrics (paper §6, "Inter-rack networking").

The paper leaves interconnecting rack-scale computers as future work and
sketches two designs: racks wired to each other by direct gateway cables
(the Theia-style option it calls "more promising") and racks bridged
through aggregation switches, tunnelling R2C2 packets inside Ethernet
frames (:mod:`repro.wire.tunnel`).  Both — and the fat-tree and random
regular rack graphs of :mod:`repro.topology.synth` — are the same three
things: identical racks, optional switch nodes, and a list of gateway
cables with their own capacity and latency.  :class:`ComposedFabric` is
that one description.  It *is* a :class:`~repro.topology.base.Topology`, so
every existing layer (routing, water-filling, broadcast trees, the packet
simulator) runs across racks unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import Link, LinkId, NodeId
from .base import Topology

__all__ = ["ComposedFabric"]


class ComposedFabric(Topology):
    """Identical racks, optional switches, and gateway cables joining them.

    Node ids: hosts first — ``rack * rack_size + local`` — then the
    *n_switches* switch nodes.  Rack links keep the rack's capacity and
    latency; gateway cables carry their own, which is how oversubscription
    is modelled.

    Args:
        racks: The per-rack topologies.  All racks must have the same node
            count (heterogeneous rack sizes would break the dense id
            arithmetic and are not a configuration the paper considers)
            and one link capacity.
        gateway_cables: Undirected cables as global ``(a, b)`` node pairs;
            each becomes the two directed gateway links.  A cable joins
            hosts of two different racks, a host and a switch, or two
            switches (see :meth:`global_id` for composing host ids).
        n_switches: Switch nodes appended after the hosts.
        gateway_capacity_bps: Capacity of gateway cables (defaults to the
            rack link capacity; set lower to model oversubscription).
        gateway_latency_ns: Propagation latency of gateway cables
            (typically larger than the 100 ns intra-rack hop).
        name: Topology name; defaults to ``composed(<n>x<rack>)``.
    """

    def __init__(
        self,
        racks: Sequence[Topology],
        gateway_cables: Sequence[Tuple[NodeId, NodeId]],
        n_switches: int = 0,
        gateway_capacity_bps: Optional[float] = None,
        gateway_latency_ns: int = 500,
        name: Optional[str] = None,
    ) -> None:
        if len(racks) < 2:
            raise TopologyError("a composed fabric needs at least two racks")
        sizes = {rack.n_nodes for rack in racks}
        if len(sizes) != 1:
            raise TopologyError(f"racks must be equally sized, got sizes {sorted(sizes)}")
        if len({rack.capacity_bps for rack in racks}) != 1:
            raise TopologyError("racks must share one link capacity")
        if not gateway_cables:
            raise TopologyError("a composed fabric needs at least one gateway cable")
        if n_switches < 0:
            raise TopologyError(f"switch count must be non-negative, got {n_switches}")

        rack = racks[0]
        self._racks = tuple(racks)
        self._rack_size = rack.n_nodes
        self._n_hosts = len(racks) * self._rack_size
        self._n_switches = n_switches
        self._gateway_capacity = float(
            rack.capacity_bps if gateway_capacity_bps is None else gateway_capacity_bps
        )

        edges: List[Tuple[NodeId, NodeId]] = []
        for rack_idx, rack_topology in enumerate(racks):
            base = rack_idx * self._rack_size
            for link in rack_topology.links:
                edges.append((base + link.src, base + link.dst))
        gateway_edges: List[Tuple[NodeId, NodeId]] = []
        for a, b in gateway_cables:
            if max(a, b) < self._n_hosts and a // self._rack_size == b // self._rack_size:
                raise TopologyError(
                    f"gateway cable ({a}, {b}) must join two different racks"
                )
            gateway_edges += [(a, b), (b, a)]
        gateway_params = (self._gateway_capacity, gateway_latency_ns)

        super().__init__(
            self._n_hosts + n_switches,
            edges + gateway_edges,
            capacity_bps=rack.capacity_bps,
            latency_ns=rack.latency_ns,
            name=name or f"composed({len(racks)}x{rack.name})",
            link_params={edge: gateway_params for edge in gateway_edges},
        )
        # Cable order (a->b then b->a per cable) is what gateway_links()
        # exposes: hierarchical routing's BFS tie-breaks depend on it.
        self._gateway_link_ids = tuple(self.link_id(a, b) for a, b in gateway_edges)
        self._gateway_link_set = frozenset(self._gateway_link_ids)

    # ------------------------------------------------------------------
    # Racks, hosts and switches
    # ------------------------------------------------------------------
    @property
    def n_racks(self) -> int:
        """Number of racks in the fabric."""
        return len(self._racks)

    @property
    def rack_size(self) -> int:
        """Hosts per rack."""
        return self._rack_size

    @property
    def n_hosts(self) -> int:
        """Host nodes (ids below the switch range)."""
        return self._n_hosts

    @property
    def n_switches(self) -> int:
        """Switch nodes (ids ``n_hosts .. n_nodes-1``)."""
        return self._n_switches

    def rack_of(self, node: NodeId) -> int:
        """The rack a host belongs to."""
        self._check_host(node)
        return node // self._rack_size

    def local_id(self, node: NodeId) -> NodeId:
        """A host's id inside its rack."""
        self._check_host(node)
        return node % self._rack_size

    def global_id(self, rack: int, local: NodeId) -> NodeId:
        """Compose a host's global node id."""
        self._check_rack(rack)
        if not (0 <= local < self._rack_size):
            raise TopologyError(f"unknown local node {local}")
        return rack * self._rack_size + local

    def rack_topology(self, rack: int) -> Topology:
        """The original topology object of one rack."""
        self._check_rack(rack)
        return self._racks[rack]

    # ------------------------------------------------------------------
    # The gateway tier
    # ------------------------------------------------------------------
    def gateway_links(self) -> List[Link]:
        """All gateway links (both directions), in cable order."""
        return [self._links[i] for i in self._gateway_link_ids]

    def is_gateway_link(self, link_id: LinkId) -> bool:
        """True if the link is a gateway cable (either direction)."""
        return link_id in self._gateway_link_set

    def oversubscription_ratio(self) -> float:
        """One rack's injection capacity over the fabric's gateway capacity.

        A rough figure of merit: the paper warns that avoiding
        oversubscription with switches "would dramatically increase costs";
        gateway cables make the trade-off explicit.
        """
        cables = len(self._gateway_link_ids) // 2
        return (self._rack_size * self.capacity_bps) / (
            cables * self._gateway_capacity
        )

    def composed_bisection_bps(self) -> float:
        """Estimated bisection bandwidth of the composed fabric (bits/s).

        The brute-force bisection search is infeasible beyond 16 nodes, so
        composed fabrics use a closed form, counting both directions of
        every crossing cable like
        :func:`repro.topology.bisection.bisection_bandwidth_bps`.

        *Switchless*: racks are split into two contiguous circular arcs of
        ``n_racks // 2`` racks and the cut is the gateway capacity crossing
        the arc boundary, minimized over all arc rotations.  Intra-rack
        links never cross (rack ids are contiguous), so this is exact
        whenever the optimal balanced cut is rack-aligned and contiguous —
        true for the ring and a tight upper bound for random regular rack
        graphs.

        *With switches*: a balanced host split routes crossing traffic
        rack->switch(->switch)->rack, so the cut is limited by the thinnest
        gateway stage available to one half: half the host uplinks or, when
        there is a switch-to-switch stage, half of those cables.
        """
        if self._n_switches:
            uplinks = sum(
                1
                for link in self.gateway_links()
                if link.src < self._n_hosts or link.dst < self._n_hosts
            ) // 2
            core = len(self._gateway_link_ids) // 2 - uplinks
            return (min(uplinks, core) if core else uplinks) * self._gateway_capacity
        n, size = self.n_racks, self._rack_size
        cables = [
            (link.src // size, link.dst // size, link.capacity_bps)
            for link in self.gateway_links()
        ]
        crossings = []
        for start in range(n):
            arc = {(start + i) % n for i in range(n // 2)}
            crossings.append(
                sum(cap for a, b, cap in cables if (a in arc) != (b in arc))
            )
        return float(min(crossings))

    # ------------------------------------------------------------------
    def _check_host(self, node: NodeId) -> None:
        if not (0 <= node < self._n_hosts):
            self._check_node(node)
            raise TopologyError(f"node {node} is a switch, not a rack host")

    def _check_rack(self, rack: int) -> None:
        if not (0 <= rack < self.n_racks):
            raise TopologyError(f"unknown rack {rack}")
