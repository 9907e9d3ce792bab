"""Tests for the generic Topology machinery."""

import pytest

from repro.errors import TopologyError
from repro.topology import GraphTopology, Topology


class TestConstruction:
    def test_rejects_zero_nodes(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 2)])

    def test_rejects_bad_capacity(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1)], capacity_bps=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1)], latency_ns=-1)

    def test_undirected_helper_creates_both_directions(self):
        topo = GraphTopology(2, [(0, 1)])
        assert topo.has_link(0, 1)
        assert topo.has_link(1, 0)
        assert topo.n_links == 2

    def test_directed_edge_is_one_way(self):
        topo = Topology(2, [(0, 1)])
        assert topo.has_link(0, 1)
        assert not topo.has_link(1, 0)


class TestAccessors:
    def test_links_are_dense_and_indexed(self, line3):
        for link in line3.links:
            assert line3.links[link.link_id] is link
            assert line3.link_id(link.src, link.dst) == link.link_id

    def test_link_lookup_missing_raises(self, line3):
        with pytest.raises(TopologyError):
            line3.link_id(0, 2)

    def test_neighbors_sorted(self, torus2d):
        for node in torus2d.nodes():
            neighbors = torus2d.neighbors(node)
            assert list(neighbors) == sorted(neighbors)

    def test_in_neighbors_match_out_neighbors_for_undirected(self, torus2d):
        for node in torus2d.nodes():
            assert torus2d.in_neighbors(node) == torus2d.neighbors(node)

    def test_degree_of_2d_torus_is_four(self, torus2d):
        assert all(torus2d.degree(n) == 4 for n in torus2d.nodes())
        assert torus2d.max_degree() == 4

    def test_node_range_check(self, line3):
        with pytest.raises(TopologyError):
            line3.neighbors(3)


class TestPorts:
    def test_port_roundtrip(self, torus2d):
        for node in torus2d.nodes():
            for port, neighbor in enumerate(torus2d.neighbors(node)):
                assert torus2d.port_of(node, neighbor) == port
                assert torus2d.neighbor_at_port(node, port) == neighbor

    def test_port_of_non_neighbor_raises(self, torus2d):
        with pytest.raises(TopologyError):
            torus2d.port_of(0, 10)

    def test_invalid_port_raises(self, line3):
        with pytest.raises(TopologyError):
            line3.neighbor_at_port(0, 5)


class TestDistances:
    def test_line_distances(self, line3):
        assert line3.distance(0, 2) == 2
        assert line3.distance(0, 0) == 0

    def test_distances_from_matches_distance(self, torus2d):
        dist = torus2d.distances_from(0)
        for dst in torus2d.nodes():
            assert dist[dst] == torus2d.distance(0, dst)

    def test_distances_to_symmetric_on_undirected(self, torus2d):
        assert torus2d.distances_to(5) == torus2d.distances_from(5)

    def test_diameter_of_4x4_torus(self, torus2d):
        assert torus2d.diameter() == 4

    def test_average_distance_positive(self, torus2d):
        avg = torus2d.average_distance()
        assert 0 < avg <= torus2d.diameter()

    def test_unreachable_raises(self):
        topo = Topology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topo.distance(0, 2)

    def test_connectivity(self, torus2d):
        assert torus2d.is_connected()
        assert not Topology(3, [(0, 1)]).is_connected()


class TestFailureViews:
    def test_without_links_removes_direction(self, torus2d):
        degraded = torus2d.without_links([(0, 1)])
        assert not degraded.has_link(0, 1)
        assert degraded.has_link(1, 0)
        assert degraded.n_nodes == torus2d.n_nodes

    def test_without_nodes_isolates(self, torus2d):
        degraded = torus2d.without_nodes([5])
        assert degraded.neighbors(5) == ()
        assert degraded.in_neighbors(5) == ()
        assert degraded.n_nodes == torus2d.n_nodes

    def test_degraded_still_routes_around(self, torus2d):
        degraded = torus2d.without_links([(0, 1), (1, 0)])
        # The torus has plenty of redundancy.
        assert degraded.distance(0, 1) == 3

    def test_coordinates_unavailable_on_generic(self, line3):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            line3.coordinates(0)
