"""Tests for broadcast trees and the broadcast FIB."""

import pytest

from repro.broadcast import (
    BroadcastFib,
    BroadcastTree,
    TreeSelector,
    build_broadcast_tree,
    build_broadcast_trees,
)
from repro.errors import BroadcastError
from repro.topology import TorusTopology


class TestTreeConstruction:
    def test_spanning(self, torus3d):
        tree = build_broadcast_tree(torus3d, root=0)
        assert tree.covers_all()
        assert tree.n_edges() == torus3d.n_nodes - 1

    def test_is_shortest_path_tree(self, torus3d):
        for seed in range(3):
            tree = build_broadcast_tree(torus3d, root=5, seed=seed)
            assert tree.is_shortest_path_tree()

    def test_depth_equals_eccentricity(self, torus2d):
        tree = build_broadcast_tree(torus2d, root=0)
        assert tree.depth() == max(torus2d.distances_from(0))

    def test_different_tree_ids_differ(self, torus3d):
        trees = build_broadcast_trees(torus3d, root=0, n_trees=4)
        parents = {t.parent for t in trees}
        assert len(parents) > 1  # tie-shuffling produced distinct trees

    def test_children_inverse_of_parent(self, torus2d):
        tree = build_broadcast_tree(torus2d, root=0)
        for node, parent in enumerate(tree.parent):
            if parent is not None:
                assert node in tree.children(parent)

    def test_edge_links_valid(self, torus2d):
        tree = build_broadcast_tree(torus2d, root=3)
        assert len(tree.edge_links()) == torus2d.n_nodes - 1

    def test_zero_trees_rejected(self, torus2d):
        with pytest.raises(BroadcastError):
            build_broadcast_trees(torus2d, 0, n_trees=0)


class TestFib:
    def test_lookup_matches_tree(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        tree = fib.tree(3, 1)
        for node in torus2d.nodes():
            assert fib.next_hops(node, 3, 1) == tree.children(node)

    def test_unknown_tree_raises(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        with pytest.raises(BroadcastError):
            fib.next_hops(0, 0, 7)
        with pytest.raises(BroadcastError):
            fib.tree(0, 7)

    def test_delivery_order_reaches_everyone_once(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        order = fib.delivery_order(0, 0)
        receivers = [dst for _, dst in order]
        assert sorted(receivers) == [n for n in torus2d.nodes() if n != 0]

    def test_delivery_order_is_causal(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=1)
        seen = {0}
        for forwarder, receiver in fib.delivery_order(0, 0):
            assert forwarder in seen
            seen.add(receiver)

    def test_entry_count_bounded(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        for node in torus2d.nodes():
            assert fib.fib_entry_count(node) <= torus2d.n_nodes * 2

    def test_trees_for(self, torus2d):
        fib = BroadcastFib(torus2d, n_trees=3)
        trees = fib.trees_for(7)
        assert [t.tree_id for t in trees] == [0, 1, 2]
        assert all(t.root == 7 for t in trees)


class TestTreeSelector:
    def test_round_robin(self):
        selector = TreeSelector(range(3))
        picks = [selector.choose() for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_rotation_starts_at_start(self):
        # An R2C2 node starts its rotation at its own node id.
        selector = TreeSelector(range(4), start=7)
        assert [selector.choose() for _ in range(4)] == [3, 0, 1, 2]

    def test_exclusion(self):
        selector = TreeSelector(range(3))
        selector.exclude(1)
        picks = {selector.choose() for _ in range(6)}
        assert picks == {0, 2}

    def test_restore(self):
        selector = TreeSelector(range(2))
        selector.exclude(0)
        selector.restore(0)
        picks = {selector.choose() for _ in range(4)}
        assert picks == {0, 1}

    def test_all_excluded_raises(self):
        selector = TreeSelector(range(2))
        selector.exclude(0)
        with pytest.raises(BroadcastError):
            selector.exclude(1)

    def test_empty_selector_rejected(self):
        with pytest.raises(BroadcastError):
            TreeSelector([])
