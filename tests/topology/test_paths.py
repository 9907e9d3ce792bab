"""Tests for shortest-path DAGs, counting and enumeration."""

import math

import pytest

from repro.topology import (
    ShortestPathDag,
    TorusTopology,
    count_shortest_paths,
    enumerate_shortest_paths,
    is_minimal_path,
    is_valid_path,
    path_links,
)


class TestShortestPathDag:
    def test_next_hops_reduce_distance(self, torus2d):
        dag = ShortestPathDag(torus2d, dst=10)
        for node in torus2d.nodes():
            if node == 10:
                continue
            for nxt in dag.next_hops(node):
                assert dag.dist[nxt] == dag.dist[node] - 1

    def test_next_hop_count_matches_free_dimensions(self):
        topo = TorusTopology((5, 5))
        dag = ShortestPathDag(topo, dst=topo.node_at((2, 2)))
        # From (0, 0), both dimensions still need correcting.
        assert len(dag.next_hops(topo.node_at((0, 0)))) == 2
        # From (2, 0) only the second dimension is free.
        assert len(dag.next_hops(topo.node_at((2, 0)))) == 1


class TestCounting:
    def test_identity(self, torus2d):
        assert count_shortest_paths(torus2d, 3, 3) == 1

    def test_one_hop(self, torus2d):
        assert count_shortest_paths(torus2d, 0, 1) == 1

    def test_multinomial_2d(self):
        # Displacement (2, 2) in a large torus: C(4, 2) = 6 interleavings.
        topo = TorusTopology((8, 8))
        src = topo.node_at((0, 0))
        dst = topo.node_at((2, 2))
        assert count_shortest_paths(topo, src, dst) == 6

    def test_paper_1680_paths_claim(self):
        # §2.2.2: a (3, 3, 3) displacement has 9!/(3!3!3!) = 1680 minimal
        # paths — the paper's "average flow has 1,680 paths" figure.
        topo = TorusTopology((8, 8, 8))
        src = topo.node_at((0, 0, 0))
        dst = topo.node_at((3, 3, 3))
        assert count_shortest_paths(topo, src, dst) == 1680
        assert 1680 == math.factorial(9) // math.factorial(3) ** 3

    def test_wrap_tie_doubles_paths(self):
        # Offset exactly k/2: both ring directions are minimal.
        topo = TorusTopology((4, 8))
        src = topo.node_at((0, 0))
        dst = topo.node_at((2, 0))
        assert count_shortest_paths(topo, src, dst) == 2

    def test_disconnected_returns_zero(self):
        from repro.topology import Topology

        topo = Topology(3, [(0, 1)])
        assert count_shortest_paths(topo, 0, 2) == 0


class TestEnumeration:
    def test_enumerates_all(self, torus2d):
        src, dst = 0, 5  # displacement (1, 1): 2 paths
        paths = list(enumerate_shortest_paths(torus2d, src, dst, limit=100))
        assert len(paths) == count_shortest_paths(torus2d, src, dst)
        assert all(is_minimal_path(torus2d, p) for p in paths)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_limit_respected(self):
        topo = TorusTopology((8, 8))
        paths = list(
            enumerate_shortest_paths(
                topo, topo.node_at((0, 0)), topo.node_at((3, 3)), limit=5
            )
        )
        assert len(paths) == 5

    def test_identity_path(self, torus2d):
        assert list(enumerate_shortest_paths(torus2d, 2, 2)) == [[2]]


class TestPathValidation:
    def test_valid_path(self, torus2d):
        assert is_valid_path(torus2d, [0, 1, 2])
        assert not is_valid_path(torus2d, [0, 2])
        assert not is_valid_path(torus2d, [])

    def test_minimal_path(self, torus2d):
        assert is_minimal_path(torus2d, [0, 1, 5])
        # Valid but not minimal (detour).
        assert not is_minimal_path(torus2d, [0, 1, 0, 4])

    def test_path_links(self, torus2d):
        links = path_links(torus2d, [0, 1, 5])
        assert links == [torus2d.link_id(0, 1), torus2d.link_id(1, 5)]


class TestDerivedDataLifetime:
    """Shared DAGs and broadcast trees are memoised on the topology itself,
    so they are released with it and never travel with it."""

    def test_discarded_topology_is_released(self):
        import gc
        import weakref

        from repro.broadcast import BroadcastFib
        from repro.topology.paths import shared_dag

        topology = TorusTopology((4, 4))
        assert shared_dag(topology, 3) is shared_dag(topology, 3)
        BroadcastFib(topology).tree(2, 1)
        ref = weakref.ref(topology)
        del topology
        gc.collect()
        assert ref() is None
