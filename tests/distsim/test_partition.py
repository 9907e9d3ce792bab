"""Partition invariants: shards tile the node set, internal + cut edges
tile the link set, and partitioning composes with failure views.

The conservative protocol's correctness leans on exactly these facts: every
link is either simulated inside one shard or carried by a boundary message
(never both, never neither), and the lookahead is derived from the true cut.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import (
    FoldedClosTopology,
    HypercubeTopology,
    MeshTopology,
    TorusTopology,
)

pytestmark = pytest.mark.distsim

_TOPOLOGIES = [
    TorusTopology((4, 4)),
    TorusTopology((2, 3, 4)),
    MeshTopology((5, 3)),
    HypercubeTopology(4),
    FoldedClosTopology(n_hosts=16, radix=8),
]


def _link_set(links):
    return {(l.src, l.dst) for l in links}


def _internal_edges(partition, topology, shard):
    """Links with both endpoints inside *shard*."""
    return [
        link for link in topology.links
        if partition.shard_of(link.src) == shard == partition.shard_of(link.dst)
    ]


@given(
    topo_idx=st.integers(min_value=0, max_value=len(_TOPOLOGIES) - 1),
    k=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from(["auto", "blocks"]),
)
@settings(max_examples=60, deadline=None)
def test_edges_tile_the_link_set(topo_idx, k, strategy):
    """Union of per-shard internal edges and cut edges == all links, disjoint."""
    topology = _TOPOLOGIES[topo_idx]
    partition = topology.partition(k, strategy=strategy)

    pieces = [_link_set(partition.cut_edges())]
    for shard in range(k):
        pieces.append(_link_set(_internal_edges(partition, topology, shard)))
    combined = set().union(*pieces)
    assert combined == _link_set(topology.links)
    assert sum(len(p) for p in pieces) == len(topology.links)  # disjoint


@given(
    topo_idx=st.integers(min_value=0, max_value=len(_TOPOLOGIES) - 1),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_shards_tile_the_node_set(topo_idx, k):
    topology = _TOPOLOGIES[topo_idx]
    partition = topology.partition(k)
    seen = []
    for shard in range(k):
        members = partition.nodes_of(shard)
        assert members, "no shard may be empty"
        assert list(members) == sorted(members)
        for node in members:
            assert partition.shard_of(node) == shard
        seen.extend(members)
    assert sorted(seen) == list(topology.nodes())


@given(
    k=st.integers(min_value=1, max_value=4),
    drop=st.sets(st.integers(min_value=0, max_value=15), max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_partition_composes_with_node_failures(k, drop):
    """Partitioning a degraded view only sees surviving links, and the
    edge-tiling invariant still holds."""
    degraded = TorusTopology((4, 4)).without_nodes(drop)
    partition = degraded.partition(k)
    pieces = [_link_set(partition.cut_edges())]
    for shard in range(k):
        pieces.append(_link_set(_internal_edges(partition, degraded, shard)))
    assert set().union(*pieces) == _link_set(degraded.links)
    for src, dst in _link_set(partition.cut_edges()):
        assert src not in drop and dst not in drop


def test_partition_composes_with_link_failures():
    topology = TorusTopology((4, 4))
    failed = [(0, 1), (1, 0), (4, 5)]
    degraded = topology.without_links(failed)
    partition = degraded.partition(2)
    all_edges = _link_set(partition.cut_edges()) | set().union(
        *(_link_set(_internal_edges(partition, degraded, s)) for s in range(2))
    )
    assert all_edges == _link_set(degraded.links)
    assert not all_edges & set(failed)


def test_lookahead_is_min_cut_latency():
    topology = TorusTopology((4, 4))
    partition = topology.partition(4)
    cut = partition.cut_edges()
    assert cut
    assert partition.lookahead_ns() == min(l.latency_ns for l in cut)


def test_single_shard_has_empty_cut_and_infinite_lookahead():
    partition = TorusTopology((4, 4)).partition(1)
    assert partition.cut_edges() == ()
    assert partition.lookahead_ns() is None


def test_clos_subtree_cut_crosses_only_leaf_spine_links():
    topology = FoldedClosTopology(n_hosts=16, radix=8)
    partition = topology.partition(2)
    hosts = set(topology.hosts())
    for link in partition.cut_edges():
        assert link.src not in hosts and link.dst not in hosts


def test_invalid_shard_counts_rejected():
    topology = TorusTopology((2, 2))
    with pytest.raises(TopologyError):
        topology.partition(0)
    with pytest.raises(TopologyError):
        topology.partition(topology.n_nodes + 1)
