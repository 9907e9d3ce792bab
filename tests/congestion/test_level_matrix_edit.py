"""A membership change edits the last level matrix instead of re-assembling
it (``LevelMatrix.edit`` behind ``WeightProvider.level_matrix``).

The contract: after any add / remove / re-announce / re-route, the matrix
the provider hands out has the same six arrays — values and dtypes — as
``LevelMatrix.build`` over the same rows, and no array of a matrix handed
out before is written (cached matrices are shared between controllers).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congestion import FlowSpec, WeightProvider
from repro.congestion import linkweights
from repro.congestion.flowstate import FlowTable
from repro.congestion.linkweights import LevelMatrix, _edit_script
from repro.topology import FoldedClosTopology, TorusTopology

ARRAYS = ("indptr", "indices", "data", "row_nnz", "col_indptr", "col_rows")
PROTOCOLS = ("rps", "ecmp")
KINDS = ("add", "add", "remove", "reannounce", "reroute", "drain")

TOPOLOGIES = {
    "torus3x3": lambda: TorusTopology((3, 3)),
    "torus4x4x4": lambda: TorusTopology((4, 4, 4)),
    "clos16": lambda: FoldedClosTopology(16, radix=8),
}


def assert_same_matrix(got: LevelMatrix, want: LevelMatrix) -> None:
    assert (got.n_flows, got.n_links) == (want.n_flows, want.n_links)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def snapshot_arrays(matrix: LevelMatrix) -> dict:
    return {name: getattr(matrix, name).copy() for name in ARRAYS}


class Churn:
    """One table and one provider under seeded membership ops; every op is
    checked against a fresh build on a provider of the oracle's own."""

    def __init__(self, topology, seed: int) -> None:
        self.topology = topology
        self.provider = WeightProvider(topology)
        self.oracle = WeightProvider(topology)
        self.table = FlowTable()
        self.rng = random.Random(seed)
        self.next_id = 0
        hosts = getattr(topology, "n_hosts", topology.n_nodes)
        # A small endpoint pool: duplicate (protocol, src, dst) rows and
        # src == dst rows (which touch no link) come up often.
        self.pairs = [(self.rng.randrange(hosts), self.rng.randrange(hosts)) for _ in range(12)]
        self.pairs += [(0, 0), (1, 1)]

    def _spec(self, flow_id: int) -> FlowSpec:
        src, dst = self.rng.choice(self.pairs)
        return FlowSpec(flow_id, src, dst, self.rng.choice(PROTOCOLS))

    def apply(self, kind: str) -> None:
        live = sorted(spec.flow_id for spec in self.table)
        if kind == "add" or not live:
            self.table.add(self._spec(self.next_id))
            self.next_id += 1
        elif kind == "remove":
            self.table.remove(self.rng.choice(live))
        elif kind == "reannounce":
            self.table.add(self._spec(self.rng.choice(live)))
        elif kind == "reroute":
            flow_id = self.rng.choice(live)
            current = self.table.get(flow_id).protocol
            self.table.update_protocol(flow_id, "ecmp" if current == "rps" else "rps")
        elif kind == "drain":
            for flow_id in live:
                self.table.remove(flow_id)

    def check(self, previous, before) -> LevelMatrix:
        flows = self.table.snapshot()
        got = self.provider.level_matrix(flows)
        want = LevelMatrix.build(
            [self.oracle.weights_for(spec) for spec in flows], self.topology.n_links
        )
        assert_same_matrix(got, want)
        if previous is not None:
            # the matrix handed out before the op is untouched
            for name in ARRAYS:
                assert np.array_equal(getattr(previous, name), before[name]), name
        return got

    def run(self, kinds) -> None:
        previous, before = None, None
        for kind in kinds:
            self.apply(kind)
            previous = self.check(previous, before)
            before = snapshot_arrays(previous)


@pytest.fixture
def edit_every_miss(monkeypatch):
    """Edit tables of any size, with any share of rows changed."""
    monkeypatch.setattr(linkweights, "_EDIT_MIN_FLOWS", 1)
    monkeypatch.setattr(linkweights, "_EDIT_MAX_SHARE", 1.0)


@pytest.mark.usefixtures("edit_every_miss")
class TestSmallTables:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=40),
    )
    def test_every_op_equals_a_build(self, topology, seed, kinds):
        churn = Churn(TOPOLOGIES[topology](), seed)
        churn.run(kinds)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_sequences(self, topology, seed):
        churn = Churn(TOPOLOGIES[topology](), seed)
        rng = random.Random(seed)
        churn.run([rng.choice(KINDS[:-1]) for _ in range(80)] + ["drain", "add", "add"])
        assert churn.provider.assembly_counts()["edit"] > 0


class TestLargeTables:
    """Tables past the crossover, at the default constants."""

    @pytest.mark.parametrize("topology", ["torus4x4x4", "clos16", "torus3x3"])
    def test_membership_churn_is_edited(self, topology):
        churn = Churn(TOPOLOGIES[topology](), seed=11)
        for _ in range(2 * linkweights._EDIT_MIN_FLOWS):
            churn.apply("add")
        churn.check(None, None)
        rng = random.Random(12)
        churn.run([rng.choice(KINDS[:-1]) for _ in range(60)])
        counts = churn.provider.assembly_counts()
        assert counts["edit"] > 0
        assert counts["build"] >= 1

    def test_rotated_order_is_one_row_out_and_one_in(self):
        """Moving the first flow to the back keeps the others in order."""
        topology = TorusTopology((4, 4, 4))
        provider = WeightProvider(topology)
        rng = random.Random(5)
        flows = [FlowSpec(i, *rng.sample(range(64), 2), "rps") for i in range(96)]
        for shift in range(4):
            rotated = flows[shift:] + flows[:shift]
            assert_same_matrix(
                provider.level_matrix(rotated),
                LevelMatrix.build([provider.weights_for(f) for f in rotated], topology.n_links),
            )
        assert provider.assembly_counts() == {"build": 1, "edit": 3}

    def test_small_tables_always_build(self):
        topology = TorusTopology((4, 4, 4))
        provider = WeightProvider(topology)
        flows = [FlowSpec(i, i, i + 1) for i in range(9)]
        provider.level_matrix(flows)
        provider.level_matrix(flows[1:])
        assert provider.assembly_counts() == {"build": 2, "edit": 0}

    def test_a_large_change_builds(self):
        topology = TorusTopology((4, 4, 4))
        provider = WeightProvider(topology)
        flows = [FlowSpec(i, i % 64, (i * 7 + 1) % 64) for i in range(128)]
        provider.level_matrix(flows)
        provider.level_matrix(flows[::2])
        assert provider.assembly_counts() == {"build": 2, "edit": 0}


class TestEditScript:
    @staticmethod
    def script(old, new, limit=100):
        return _edit_script(
            [fid for fid, _ in old], tuple(k for _, k in old),
            [fid for fid, _ in new], tuple(k for _, k in new), limit,
        )

    def test_removal_and_arrival(self):
        old = [(i, "k") for i in range(10)]
        new = old[:3] + old[4:] + [(10, "k")]
        assert self.script(old, new) == ([3], [9])

    def test_new_row_key_is_one_out_one_in(self):
        old = [(i, "k") for i in range(6)]
        new = old[:2] + [(2, "other")] + old[3:]
        assert self.script(old, new) == ([2], [2])

    def test_a_moved_row_is_found(self):
        old = [(i, "k") for i in range(8)]
        assert self.script(old, old[1:] + old[:1]) == ([0], [7])
        assert self.script(old, old[-1:] + old[:-1]) == ([7], [0])

    def test_past_the_limit_gives_up(self):
        old = [(i, "k") for i in range(10)]
        assert self.script(old, old[::2], limit=4) is None
        assert self.script(old, old[::2], limit=5) == ([1, 3, 5, 7, 9], [])

    @settings(max_examples=200, deadline=None)
    @given(
        old=st.lists(st.tuples(st.integers(0, 12), st.sampled_from("ab")), max_size=20),
        new=st.lists(st.tuples(st.integers(0, 12), st.sampled_from("ab")), max_size=20),
    )
    def test_what_stays_is_common(self, old, new):
        """Any script returned keeps equal entries in order, duplicates included."""
        script = self.script(old, new, limit=40)
        assert script is not None
        removed, inserted = script
        assert removed == sorted(set(removed)) and inserted == sorted(set(inserted))
        kept_old = [e for i, e in enumerate(old) if i not in set(removed)]
        kept_new = [e for j, e in enumerate(new) if j not in set(inserted)]
        assert kept_old == kept_new
