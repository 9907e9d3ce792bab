"""Tests for hypercube and folded-Clos topologies."""

import pytest

from repro.errors import TopologyError
from repro.topology import FoldedClosTopology, HypercubeTopology


class TestHypercube:
    def test_node_and_link_count(self):
        topo = HypercubeTopology(4)
        assert topo.n_nodes == 16
        assert topo.n_links == 16 * 4

    def test_distance_is_hamming(self):
        topo = HypercubeTopology(4)
        assert topo.distance(0b0000, 0b1111) == 4
        assert topo.distance(0b1010, 0b1010) == 0
        assert topo.distance(0b0001, 0b0010) == 2

    def test_neighbors_differ_in_one_bit(self):
        topo = HypercubeTopology(3)
        for node in topo.nodes():
            for nxt in topo.neighbors(node):
                assert bin(node ^ nxt).count("1") == 1

    def test_coordinates_roundtrip(self):
        topo = HypercubeTopology(3)
        for node in topo.nodes():
            assert topo.node_at(topo.coordinates(node)) == node

    def test_coordinates_are_bits_msb_first(self):
        topo = HypercubeTopology(3)
        assert topo.coordinates(0b110) == (1, 1, 0)

    def test_dims_property(self):
        assert HypercubeTopology(3).dims == (2, 2, 2)

    def test_rejects_zero_dims(self):
        with pytest.raises(TopologyError):
            HypercubeTopology(0)

    def test_bad_coordinate_bit(self):
        with pytest.raises(TopologyError):
            HypercubeTopology(2).node_at((0, 2))


class TestFoldedClos:
    def test_structure(self, clos):
        # 16 hosts, radix 8: 4 leaves, 4 spines.
        assert clos.n_hosts == 16
        assert clos.n_leaves == 4
        assert clos.n_spines == 4
        assert clos.n_nodes == 24

    def test_host_to_host_distance(self, clos):
        # Same leaf: host-leaf-host = 2; different leaf: 4.
        assert clos.distance(0, 1) == 2
        assert clos.distance(0, 15) == 4

    def test_leaf_of(self, clos):
        assert clos.leaf_of(0) == 16
        assert clos.leaf_of(15) == 19
        with pytest.raises(TopologyError):
            clos.leaf_of(20)

    def test_is_host(self, clos):
        assert clos.is_host(0)
        assert not clos.is_host(16)

    def test_512_host_paper_configuration(self):
        # The §6 example: 512 hosts on 32-port switches.
        topo = FoldedClosTopology(512, radix=32)
        assert topo.n_leaves == 32
        assert topo.n_spines == 16
        assert topo.n_nodes == 512 + 32 + 16

    def test_rejects_odd_radix(self):
        with pytest.raises(TopologyError):
            FoldedClosTopology(16, radix=7)

    def test_rejects_nonmultiple_hosts(self):
        with pytest.raises(TopologyError):
            FoldedClosTopology(17, radix=8)

    def test_rejects_too_many_hosts(self):
        with pytest.raises(TopologyError):
            FoldedClosTopology(4 * 8 * 2, radix=8)  # needs > radix leaves
