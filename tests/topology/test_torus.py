"""Tests for torus and mesh topologies."""

import pytest

from repro.errors import TopologyError
from repro.topology import MeshTopology, TorusTopology


class TestTorus:
    def test_node_count(self):
        assert TorusTopology((8, 8, 8)).n_nodes == 512
        assert TorusTopology((3, 3, 3)).n_nodes == 27

    def test_link_count_3d(self):
        # Each node has 6 neighbors in a 3D torus with dims > 2.
        topo = TorusTopology((4, 4, 4))
        assert topo.n_links == 64 * 6

    def test_degree_with_dim_two(self):
        # A dimension of size two contributes a single neighbor.
        topo = TorusTopology((2, 4))
        assert all(topo.degree(n) == 3 for n in topo.nodes())

    def test_coordinates_roundtrip(self):
        topo = TorusTopology((3, 4, 5))
        for node in topo.nodes():
            assert topo.node_at(topo.coordinates(node)) == node

    def test_row_major_layout(self):
        topo = TorusTopology((3, 4, 5))
        assert topo.node_at((0, 0, 0)) == 0
        assert topo.node_at((0, 0, 1)) == 1
        assert topo.node_at((0, 1, 0)) == 5
        assert topo.node_at((1, 0, 0)) == 20

    def test_analytic_distance_matches_bfs(self):
        topo = TorusTopology((4, 5))
        bfs = topo.distances_from(0)
        for dst in topo.nodes():
            assert topo.distance(0, dst) == bfs[dst]

    def test_wraparound_distance(self):
        topo = TorusTopology((8, 8))
        a = topo.node_at((0, 0))
        b = topo.node_at((7, 0))
        assert topo.distance(a, b) == 1

    def test_diameter(self):
        assert TorusTopology((4, 4)).diameter() == 4
        assert TorusTopology((8, 8, 8)).diameter() == 12

    def test_rejects_dim_below_two(self):
        with pytest.raises(TopologyError):
            TorusTopology((1, 4))

    def test_rejects_empty_dims(self):
        with pytest.raises(TopologyError):
            TorusTopology(())

    def test_bad_coordinates_raise(self):
        topo = TorusTopology((4, 4))
        with pytest.raises(TopologyError):
            topo.node_at((4, 0))
        with pytest.raises(TopologyError):
            topo.node_at((0, 0, 0))


class TestMesh:
    def test_no_wraparound(self):
        topo = MeshTopology((4, 4))
        a = topo.node_at((0, 0))
        b = topo.node_at((3, 0))
        assert not topo.has_link(a, b)
        assert topo.distance(a, b) == 3

    def test_corner_degree(self):
        topo = MeshTopology((4, 4))
        assert topo.degree(topo.node_at((0, 0))) == 2
        assert topo.degree(topo.node_at((1, 1))) == 4

    def test_link_count_2d(self):
        # 2 * (k-1) * k links per dimension, both directions.
        topo = MeshTopology((4, 4))
        assert topo.n_links == 2 * (2 * 3 * 4)

    def test_manhattan_distance(self):
        topo = MeshTopology((5, 5))
        assert topo.distance(topo.node_at((0, 0)), topo.node_at((4, 4))) == 8

    def test_diameter(self):
        assert MeshTopology((4, 4)).diameter() == 6

    def test_connected(self):
        assert MeshTopology((3, 3, 3)).is_connected()
