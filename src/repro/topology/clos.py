"""Two-level folded-Clos (leaf-spine) topology.

Section 6 of the paper observes that R2C2's broadcast-based congestion
control also applies to switched intra-rack networks, quoting a 512-node rack
built from 32-port switches in a two-level folded Clos where one broadcast
costs only ~8.7 KB of total traffic.  This module builds that topology so the
claim can be checked numerically and so the congestion-control layer can be
exercised on a non-direct-connect fabric.

Hosts occupy ids ``0 .. n_hosts-1``; leaf switches and spine switches follow.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..types import NodeId
from .base import DEFAULT_CAPACITY_BPS, DEFAULT_LATENCY_NS, Topology


class FoldedClosTopology(Topology):
    """A two-level folded Clos built from fixed-radix switches.

    Each leaf switch dedicates half its ``radix`` ports to hosts and half to
    spines; each spine connects to every leaf.  With radix *r* and *l* leaves
    this supports ``l * r / 2`` hosts using ``r / 2`` spines.

    Args:
        n_hosts: Number of host nodes; must be a multiple of ``radix // 2``.
        radix: Switch port count (even, >= 4).
    """

    def __init__(
        self,
        n_hosts: int,
        radix: int = 32,
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency_ns: int = DEFAULT_LATENCY_NS,
    ) -> None:
        if radix < 4 or radix % 2 != 0:
            raise TopologyError(f"radix must be an even number >= 4, got {radix}")
        hosts_per_leaf = radix // 2
        if n_hosts <= 0 or n_hosts % hosts_per_leaf != 0:
            raise TopologyError(
                f"n_hosts ({n_hosts}) must be a positive multiple of radix/2 ({hosts_per_leaf})"
            )
        n_leaves = n_hosts // hosts_per_leaf
        n_spines = radix // 2
        if n_leaves > radix:
            raise TopologyError(
                f"{n_leaves} leaves exceed spine radix {radix}; "
                f"a two-level Clos with radix {radix} supports at most "
                f"{radix * hosts_per_leaf} hosts"
            )

        self._n_hosts = n_hosts
        self._n_leaves = n_leaves
        self._n_spines = n_spines
        self._radix = radix

        leaf_base = n_hosts
        spine_base = n_hosts + n_leaves
        edges = []
        for host in range(n_hosts):
            leaf = leaf_base + host // hosts_per_leaf
            edges.append((host, leaf))
            edges.append((leaf, host))
        for leaf_idx in range(n_leaves):
            leaf = leaf_base + leaf_idx
            for spine_idx in range(n_spines):
                spine = spine_base + spine_idx
                edges.append((leaf, spine))
                edges.append((spine, leaf))

        super().__init__(
            n_hosts + n_leaves + n_spines,
            edges,
            capacity_bps=capacity_bps,
            latency_ns=latency_ns,
            name=f"clos({n_hosts}h,{n_leaves}l,{n_spines}s)",
        )

    @property
    def n_hosts(self) -> int:
        """Number of host (end-point) nodes."""
        return self._n_hosts

    @property
    def n_leaves(self) -> int:
        """Number of leaf switches."""
        return self._n_leaves

    @property
    def n_spines(self) -> int:
        """Number of spine switches."""
        return self._n_spines

    def is_host(self, node: NodeId) -> bool:
        """True if *node* is a host rather than a switch."""
        self._check_node(node)
        return node < self._n_hosts

    def leaf_of(self, host: NodeId) -> NodeId:
        """The leaf switch a host hangs off."""
        if not self.is_host(host):
            raise TopologyError(f"node {host} is a switch, not a host")
        return self._n_hosts + host // (self._radix // 2)
