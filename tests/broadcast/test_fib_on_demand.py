"""The broadcast plane resolves trees on first use and shares them per
topology: same trees as the eager build (pinned), built only when used,
and invisible in every result a run reports."""

import hashlib
import json
import random

import pytest

import repro.broadcast.tree as tree_module
from repro.broadcast import BroadcastFib, build_broadcast_tree
from repro.distsim import canonical_metrics, comparable_snapshot, run_sharded_simulation
from repro.errors import BroadcastError
from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.workloads import poisson_trace


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_broadcast_tree`` call made through the shared memo,
    as ``(topology, root, tree_id, seed)``."""
    calls = []
    real = tree_module.build_broadcast_tree

    def counted(topology, root, tree_id=0, seed=0):
        calls.append((topology, root, tree_id, seed))
        return real(topology, root, tree_id, seed)

    monkeypatch.setattr(tree_module, "build_broadcast_tree", counted)
    return calls


# Taken with the eager, transposing FIB build this one replaced.
PINNED = [
    (lambda: TorusTopology((4, 4, 4)), 4, 0, "c379e7df9ee4aee1", 8192),
    (lambda: TorusTopology((4, 4)), 2, 7, "468a783ca4353d61", 256),
    (
        lambda: TorusTopology((4, 4, 4)).without_links([(0, 1), (1, 0)]),
        4,
        0,
        "de298454138a3968",
        8212,
    ),
]


@pytest.mark.parametrize("make_topology, n_trees, seed, digest, entries", PINNED)
def test_same_trees_as_the_eager_build(make_topology, n_trees, seed, digest, entries):
    topology = make_topology()
    fib = BroadcastFib(topology, n_trees=n_trees, seed=seed)
    pairs = [(src, tree_id) for src in topology.nodes() for tree_id in range(n_trees)]
    # Resolution order cannot matter: resolve shuffled, digest ascending.
    shuffled = list(pairs)
    random.Random(5).shuffle(shuffled)
    for src, tree_id in shuffled:
        expected = build_broadcast_tree(topology, src, tree_id, seed)
        assert fib.tree(src, tree_id).parent == expected.parent
    blob = "".join(repr((src, t, fib.tree(src, t).parent)) for src, t in pairs)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
    assert sum(fib.fib_entry_count(node) for node in topology.nodes()) == entries


class TestResolvedMeansUsed:
    def test_a_run_builds_only_the_trees_its_broadcasts_travel(self, builds):
        topology = TorusTopology((4, 4, 4))
        n_flows = 12
        trace = poisson_trace(topology, n_flows, 20_000, seed=2)
        config = SimConfig(stack="r2c2", control_plane="per_node", seed=2)
        first = run_simulation(topology, trace, config)
        assert 0 < len(builds) <= 2 * n_flows
        assert len(set(builds)) == len(builds)
        del builds[:]
        second = run_simulation(topology, trace, config)
        assert builds == []
        assert canonical_metrics(second) == canonical_metrics(first)

    def test_constructing_a_fib_builds_nothing(self, builds, torus3d):
        BroadcastFib(torus3d, n_trees=4)
        assert builds == []

    def test_a_different_seed_shares_nothing(self, builds, torus2d):
        BroadcastFib(torus2d, n_trees=2, seed=0).trees_for(3)
        BroadcastFib(torus2d, n_trees=2, seed=1).trees_for(3)
        assert [(root, tree_id, seed) for _, root, tree_id, seed in builds] == [
            (3, 0, 0), (3, 1, 0), (3, 0, 1), (3, 1, 1),
        ]

    def test_fibs_with_different_tree_counts_share_the_common_trees(
        self, builds, torus2d
    ):
        narrow = BroadcastFib(torus2d, n_trees=2)
        wide = BroadcastFib(torus2d, n_trees=4)
        narrow_trees = narrow.trees_for(5)
        wide_trees = wide.trees_for(5)
        assert [tree_id for _, _, tree_id, _ in builds] == [0, 1, 2, 3]
        assert wide_trees[0] is narrow_trees[0] and wide_trees[1] is narrow_trees[1]

    def test_a_failure_view_builds_its_own_trees(self, builds, torus2d):
        BroadcastFib(torus2d, n_trees=2).trees_for(0)
        del builds[:]
        removed = {(0, 1), (1, 0), (4, 0), (0, 4)}
        degraded = torus2d.without_links(removed)
        assert degraded.derived == {}
        fib = BroadcastFib(degraded, n_trees=2)
        for src in degraded.nodes():
            for tree_id in range(2):
                for node in degraded.nodes():
                    for child in fib.next_hops(node, src, tree_id):
                        assert (node, child) not in removed
        assert len(builds) == 2 * degraded.n_nodes
        assert all(topology is degraded for topology, _, _, _ in builds)

    def test_out_of_range_lookups_raise(self, builds, torus2d):
        fib = BroadcastFib(torus2d, n_trees=2)
        n = torus2d.n_nodes
        for node, src, tree_id in [(n, 0, 0), (-1, 0, 0), (0, n, 0), (0, -1, 0),
                                   (0, 0, 2), (0, 0, -1)]:
            with pytest.raises(BroadcastError):
                fib.next_hops(node, src, tree_id)
        for src, tree_id in [(n, 0), (-1, 0), (0, 2), (0, -1)]:
            with pytest.raises(BroadcastError):
                fib.tree(src, tree_id)
        assert builds == []


class TestProcessHistoryIsInvisible:
    """A cold memo and a warm one are indistinguishable in what a run reports."""

    @pytest.mark.telemetry
    def test_cold_then_warm_runs_report_the_same_bytes(self):
        topology = TorusTopology((4, 4))
        trace = poisson_trace(topology, 30, 8_000, seed=4)
        config = SimConfig(stack="r2c2", control_plane="per_node", seed=4)
        reports = []
        for _ in range(2):
            telemetry = Telemetry(TelemetryConfig(metrics=True, trace=True))
            metrics = run_simulation(topology, trace, config, telemetry=telemetry)
            reports.append((
                json.dumps(canonical_metrics(metrics), sort_keys=True),
                telemetry.trace.to_json(),
                json.dumps(comparable_snapshot(telemetry.metrics.snapshot()), sort_keys=True),
            ))
        cold, warm = reports
        assert warm == cold

    @pytest.mark.distsim
    def test_sharded_after_serial_on_the_same_topology_object(self, builds):
        topology = TorusTopology((4, 4))
        trace = poisson_trace(topology, 30, 8_000, seed=4)
        config = SimConfig(stack="r2c2", control_plane="per_node", seed=4)
        telemetry = Telemetry(TelemetryConfig(metrics=True, trace=False))
        serial = run_simulation(topology, trace, config, telemetry=telemetry)
        del builds[:]
        sharded = run_sharded_simulation(
            topology,
            trace,
            config,
            shards=4,
            telemetry_config=TelemetryConfig(metrics=True, trace=False),
        )
        assert builds == []  # the four shards share the serial run's trees
        assert canonical_metrics(sharded.metrics) == canonical_metrics(serial)
        assert comparable_snapshot(sharded.telemetry_snapshot) == comparable_snapshot(
            telemetry.metrics.snapshot()
        )
