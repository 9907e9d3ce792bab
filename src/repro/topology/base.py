"""Topology abstractions for direct-connect rack fabrics.

A :class:`Topology` is an immutable directed graph with dense node and link
ids, per-link capacity and latency, and a handful of derived structures that
the rest of the stack relies on:

* ``neighbors(node)`` / ``in_neighbors(node)`` adjacency,
* ``port_of(src, dst)`` — the local *port number* of each outgoing link,
  which is what the R2C2 data-plane encodes into the 3-bit-per-hop source
  route (§4.2 of the paper),
* hop-count distances with per-source caching,
* failure views (``without_links`` / ``without_nodes``) that return plain
  :class:`GraphTopology` instances with the same node ids.

Subclasses for regular topologies (torus, mesh, hypercube, folded Clos) add
coordinates and analytic distances where available.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import Link, LinkId, NodeId, gbps


#: Default link parameters, mirroring the paper's simulation setup
#: (10 Gbps links with 100 ns per-hop latency, §5.2).
DEFAULT_CAPACITY_BPS = gbps(10)
DEFAULT_LATENCY_NS = 100


class Topology:
    """An immutable directed-graph topology.

    Construction takes the number of nodes and an iterable of directed
    ``(src, dst)`` edges.  Every edge receives the same capacity and latency
    — the rack fabrics the paper studies are homogeneous ("all network links
    inside the rack have the same capacity", §3.2) — except the directed
    links named in *link_params*, a ``(src, dst) -> (capacity_bps,
    latency_ns)`` mapping.  That is how composed multi-rack fabrics give
    their gateway cables their own parameters, and how failure views keep
    them.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Tuple[NodeId, NodeId]],
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
        name: str = "graph",
        link_params: Optional[Mapping[Tuple[NodeId, NodeId], Tuple[float, int]]] = None,
    ) -> None:
        if n_nodes <= 0:
            raise TopologyError(f"topology needs at least one node, got {n_nodes}")
        if capacity_bps <= 0:
            raise TopologyError(f"link capacity must be positive, got {capacity_bps}")
        if latency_ns < 0:
            raise TopologyError(f"link latency must be non-negative, got {latency_ns}")

        self._n_nodes = n_nodes
        self._name = name
        self._capacity_bps = float(capacity_bps)
        self._latency_ns = int(latency_ns)

        out_adj: List[List[NodeId]] = [[] for _ in range(n_nodes)]
        seen = set()
        for src, dst in edges:
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise TopologyError(f"edge ({src}, {dst}) outside node range 0..{n_nodes - 1}")
            if src == dst:
                raise TopologyError(f"self-loop on node {src} is not allowed")
            if (src, dst) in seen:
                raise TopologyError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))
            out_adj[src].append(dst)

        default = (self._capacity_bps, self._latency_ns)
        exceptions: Dict[Tuple[NodeId, NodeId], Tuple[float, int]] = {}
        for edge, (capacity, latency) in (link_params or {}).items():
            if edge not in seen or capacity <= 0 or latency < 0:
                raise TopologyError(
                    f"link parameters ({capacity}, {latency}) for {edge} need an "
                    "existing edge, positive capacity and non-negative latency"
                )
            exceptions[edge] = (float(capacity), int(latency))

        # Ports are assigned in sorted-neighbor order so that the mapping is
        # deterministic and identical on every node that rebuilds it.
        links: List[Link] = []
        link_index: Dict[Tuple[NodeId, NodeId], LinkId] = {}
        neighbors: List[Tuple[NodeId, ...]] = []
        for node in range(n_nodes):
            out_adj[node].sort()
            neighbors.append(tuple(out_adj[node]))
            for dst in out_adj[node]:
                link_id = len(links)
                edge = (node, dst)
                links.append(Link(link_id, node, dst, *exceptions.get(edge, default)))
                link_index[edge] = link_id

        in_adj: List[List[NodeId]] = [[] for _ in range(n_nodes)]
        for link in links:
            in_adj[link.dst].append(link.src)

        self._links: Tuple[Link, ...] = tuple(links)
        self._link_index = link_index
        self._neighbors = tuple(neighbors)
        self._in_neighbors = tuple(tuple(sorted(a)) for a in in_adj)
        self._dist_cache: Dict[NodeId, List[int]] = {}
        #: Pure functions of this graph that other layers memoise on it
        #: (shortest-path DAGs, broadcast trees), keyed by a tuple whose
        #: first element names the kind.  Owned by the instance so that it
        #: dies with the topology — the values point back at it, which would
        #: pin a weak key in any module-level table.
        self._derived: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable topology name (e.g. ``"torus(8x8x8)"``)."""
        return self._name

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n_nodes

    @property
    def n_links(self) -> int:
        """Number of directed links."""
        return len(self._links)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All directed links, indexed by :class:`~repro.types.LinkId`."""
        return self._links

    @property
    def capacity_bps(self) -> float:
        """Default per-link capacity in bits per second (every link of a
        homogeneous fabric; the rack links of a composed one)."""
        return self._capacity_bps

    @property
    def latency_ns(self) -> int:
        """Default per-link propagation latency in nanoseconds."""
        return self._latency_ns

    def nodes(self) -> range:
        """Iterable of all node ids."""
        return range(self._n_nodes)

    @property
    def derived(self) -> Dict[tuple, object]:
        """This instance's memo of derived structures (see ``__init__``).
        Failure views are new instances and start empty."""
        return self._derived

    @property
    def n_hosts(self) -> int:
        """Number of traffic endpoints.  Every node of a direct-connect
        fabric is one; fabrics with switch nodes number their hosts first
        and override this."""
        return self._n_nodes

    def hosts(self) -> range:
        """Iterable of the host node ids (``0 .. n_hosts-1``)."""
        return range(self.n_hosts)

    def is_gateway_link(self, link_id: LinkId) -> bool:
        """True if the link is an inter-rack gateway cable.  A single rack
        has none; :class:`~repro.topology.composed.ComposedFabric` does."""
        return False

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Out-neighbors of *node* in ascending order (port order)."""
        self._check_node(node)
        return self._neighbors[node]

    def in_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """In-neighbors of *node* in ascending order."""
        self._check_node(node)
        return self._in_neighbors[node]

    def degree(self, node: NodeId) -> int:
        """Out-degree of *node*."""
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """Maximum out-degree over all nodes."""
        return max(len(n) for n in self._neighbors)

    def has_link(self, src: NodeId, dst: NodeId) -> bool:
        """True if the directed link ``src -> dst`` exists."""
        return (src, dst) in self._link_index

    def link_id(self, src: NodeId, dst: NodeId) -> LinkId:
        """Dense id of the directed link ``src -> dst``.

        Raises:
            TopologyError: if the link does not exist.
        """
        try:
            return self._link_index[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst} in {self._name}") from None

    def link(self, src: NodeId, dst: NodeId) -> Link:
        """The :class:`~repro.types.Link` for ``src -> dst``."""
        return self._links[self.link_id(src, dst)]

    # ------------------------------------------------------------------
    # Ports (3-bit source-route encoding support)
    # ------------------------------------------------------------------
    def port_of(self, src: NodeId, dst: NodeId) -> int:
        """Port number of the link ``src -> dst`` on node *src*.

        Ports number outgoing links ``0 .. degree-1`` in ascending neighbor
        order; the R2C2 data packet encodes a path as one port per hop.
        """
        try:
            return self._neighbors[src].index(dst)
        except (ValueError, IndexError):
            raise TopologyError(f"{dst} is not a neighbor of {src} in {self._name}") from None

    def neighbor_at_port(self, node: NodeId, port: int) -> NodeId:
        """Inverse of :meth:`port_of`."""
        neigh = self.neighbors(node)
        if not (0 <= port < len(neigh)):
            raise TopologyError(f"node {node} has no port {port} (degree {len(neigh)})")
        return neigh[port]

    def path_to_ports(self, path: Sequence[NodeId]) -> List[int]:
        """Convert a node path ``[n0, n1, ..., nk]`` to a port list."""
        return [self.port_of(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def ports_to_path(self, src: NodeId, ports: Sequence[int]) -> List[NodeId]:
        """Expand a source node plus port list back to the node path."""
        path = [src]
        for port in ports:
            path.append(self.neighbor_at_port(path[-1], port))
        return path

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distance(self, src: NodeId, dst: NodeId) -> int:
        """Hop-count distance from *src* to *dst*.

        Generic implementation runs a cached BFS per source; coordinate
        topologies override this with closed forms.

        Raises:
            TopologyError: if *dst* is unreachable from *src*.
        """
        dist = self.distances_from(src)[dst]
        if dist < 0:
            raise TopologyError(f"{dst} unreachable from {src} in {self._name}")
        return dist

    def distances_from(self, src: NodeId) -> List[int]:
        """BFS distances from *src* to every node; ``-1`` = unreachable."""
        self._check_node(src)
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        dist = [-1] * self._n_nodes
        dist[src] = 0
        queue = deque([src])
        while queue:
            node = queue.popleft()
            d = dist[node] + 1
            for nxt in self._neighbors[node]:
                if dist[nxt] < 0:
                    dist[nxt] = d
                    queue.append(nxt)
        self._dist_cache[src] = dist
        return dist

    def distances_to(self, dst: NodeId) -> List[int]:
        """Distances from every node to *dst* (BFS over reversed links)."""
        self._check_node(dst)
        dist = [-1] * self._n_nodes
        dist[dst] = 0
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            d = dist[node] + 1
            for prev in self._in_neighbors[node]:
                if dist[prev] < 0:
                    dist[prev] = d
                    queue.append(prev)
        return dist

    def diameter(self) -> int:
        """Longest shortest-path distance over all connected pairs."""
        best = 0
        for src in self.nodes():
            best = max(best, max(self.distances_from(src)))
        return best

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes."""
        total = 0
        count = 0
        for src in self.nodes():
            for dst, d in enumerate(self.distances_from(src)):
                if dst != src and d > 0:
                    total += d
                    count += 1
        return total / count if count else 0.0

    def is_connected(self) -> bool:
        """True if every node is reachable from node 0 (and vice versa)."""
        if self._n_nodes == 1:
            return True
        return (
            all(d >= 0 for d in self.distances_from(0))
            and all(d >= 0 for d in self.distances_to(0))
        )

    # ------------------------------------------------------------------
    # Coordinates (overridden by regular topologies)
    # ------------------------------------------------------------------
    @property
    def dims(self) -> Optional[Tuple[int, ...]]:
        """Dimension sizes for coordinate topologies, else ``None``."""
        return None

    def coordinates(self, node: NodeId) -> Tuple[int, ...]:
        """Coordinates of *node*; only meaningful for coordinate topologies."""
        raise TopologyError(f"{self._name} has no coordinate system")

    def node_at(self, coords: Sequence[int]) -> NodeId:
        """Node id at *coords*; only meaningful for coordinate topologies."""
        raise TopologyError(f"{self._name} has no coordinate system")

    # ------------------------------------------------------------------
    # Failure views
    # ------------------------------------------------------------------
    def without_links(self, failed: Iterable[Tuple[NodeId, NodeId]]) -> "Topology":
        """A copy of this topology with the given directed links removed.

        Node ids are preserved and every surviving link keeps its own
        capacity and latency; the result is a plain :class:`Topology`, so
        coordinate-based routing no longer applies to it.
        """
        failed_set = set(failed)
        return self._view(
            link for link in self._links if (link.src, link.dst) not in failed_set
        )

    def without_nodes(self, failed: Iterable[NodeId]) -> "Topology":
        """A copy with the given nodes' links removed.

        The failed nodes remain as isolated ids so that the dense id space
        (and hence flow/table indexing everywhere else) is preserved.
        """
        failed_set = set(failed)
        return self._view(
            link
            for link in self._links
            if link.src not in failed_set and link.dst not in failed_set
        )

    def _view(self, surviving: Iterable[Link]) -> "Topology":
        default = (self._capacity_bps, self._latency_ns)
        edges = []
        link_params = {}
        for link in surviving:
            edge = (link.src, link.dst)
            edges.append(edge)
            if (link.capacity_bps, link.latency_ns) != default:
                link_params[edge] = (link.capacity_bps, link.latency_ns)
        return Topology(
            self._n_nodes,
            edges,
            capacity_bps=self._capacity_bps,
            latency_ns=self._latency_ns,
            name=f"{self._name}-degraded",
            link_params=link_params,
        )

    # ------------------------------------------------------------------
    # Partitioning (sharded simulation support)
    # ------------------------------------------------------------------
    def partition(self, k: int, strategy: str = "auto"):
        """Split the nodes into *k* shards for parallel simulation.

        Returns a :class:`~repro.topology.partition.Partition`; see that
        module for the cut strategies.  Composes with failure views — the
        partition of a degraded topology only sees surviving links.
        """
        from .partition import partition_topology

        return partition_topology(self, k, strategy=strategy)

    # ------------------------------------------------------------------
    def _check_node(self, node: NodeId) -> None:
        if not (0 <= node < self._n_nodes):
            raise TopologyError(f"node {node} outside range 0..{self._n_nodes - 1}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self._name}: {self._n_nodes} nodes, {self.n_links} links>"


class GraphTopology(Topology):
    """A topology built from an explicit undirected edge list.

    Each undirected edge ``(a, b)`` becomes the two directed links ``a -> b``
    and ``b -> a``.  Useful for tests and irregular fabrics.
    """

    def __init__(
        self,
        n_nodes: int,
        undirected_edges: Iterable[Tuple[NodeId, NodeId]],
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
        name: str = "graph",
    ) -> None:
        directed: List[Tuple[NodeId, NodeId]] = []
        for a, b in undirected_edges:
            directed.append((a, b))
            directed.append((b, a))
        super().__init__(
            n_nodes, directed, capacity_bps=capacity_bps, latency_ns=latency_ns, name=name
        )
