"""The provider's one retained level matrix and the CSC permutation's fast path."""

import random

import numpy as np
import pytest

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.congestion import linkweights
from repro.congestion.linkweights import LevelMatrix
from repro.topology import TorusTopology


#: ``LevelMatrix.build`` sorts 16-bit keys up to this many links.
RADIX_KEY_LINKS = 1 << 16


def _rps_population(topology, n_flows, seed):
    rng = random.Random(seed)
    flows = []
    for flow_id in range(n_flows):
        src, dst = rng.sample(range(topology.n_nodes), 2)
        flows.append(FlowSpec(flow_id, src, dst, "rps"))
    return flows


class TestOneRetainedLevel:
    def test_churning_table_keeps_one_level_matrix(self):
        """Each membership change at 512 rps flows on 8x8x8 derives a new
        ~1.1 MB matrix; the provider keeps only the last one."""
        topology = TorusTopology((8, 8, 8))
        provider = WeightProvider(topology)
        flows = _rps_population(topology, 512, seed=7)
        rng = random.Random(8)
        for step in range(5):
            src, dst = rng.sample(range(topology.n_nodes), 2)
            flows[rng.randrange(len(flows))] = FlowSpec(1000 + step, src, dst, "rps")
            matrix = provider.level_matrix(flows)
        assert matrix.nbytes() > 2**20  # the population is as big as intended
        vectors = sum(idx.nbytes + val.nbytes for idx, val in provider._cache.values())
        assert provider.memory_footprint_bytes() - vectors == matrix.nbytes()

        # Demands are not part of the rows' identity: a demand-only re-fill
        # takes the retained matrix.
        assert provider.level_matrix([f.with_demand(1e9) for f in flows]) is matrix

    def test_a_repeated_small_list_assembles_once(self, torus2d):
        """Figure 8's epoch loop fills one short live list again and again
        between arrivals."""
        provider = WeightProvider(torus2d)
        flows = [FlowSpec(i, i, (i + 5) % torus2d.n_nodes, "rps") for i in range(12)]
        assert len(flows) < linkweights._EDIT_MIN_FLOWS
        for _ in range(10):
            waterfill(torus2d, flows, provider, headroom=0.05)
        assert provider.assembly_counts()["build"] == 1


def _int64_csc(matrix):
    """The CSC pattern as the plain int64 stable sort builds it."""
    order = np.argsort(matrix.indices, kind="stable")
    col_rows = np.repeat(np.arange(matrix.n_flows, dtype=np.int64), matrix.row_nnz)[order]
    col_indptr = np.zeros(matrix.n_links + 1, dtype=np.int64)
    np.cumsum(np.bincount(matrix.indices, minlength=matrix.n_links), out=col_indptr[1:])
    return col_rows, col_indptr


class TestCscPermutation:
    @pytest.mark.parametrize("dims, n_flows", [((4, 4, 4), 64), ((8, 8, 8), 512)])
    def test_radix_keys_give_the_int64_permutation(self, dims, n_flows):
        topology = TorusTopology(dims)
        assert topology.n_links <= RADIX_KEY_LINKS
        provider = WeightProvider(topology)
        matrix = provider.level_matrix(_rps_population(topology, n_flows, seed=3))
        col_rows, col_indptr = _int64_csc(matrix)
        assert np.array_equal(matrix.col_rows, col_rows)
        assert np.array_equal(matrix.col_indptr, col_indptr)

    def test_fabrics_past_the_key_width_use_the_int64_sort(self):
        """Link ids above 65,535 would wrap in a 16-bit key."""
        n_links = RADIX_KEY_LINKS + 10
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(40):
            idx = np.sort(rng.choice(n_links, size=30, replace=False)).astype(np.int64)
            rows.append((idx, rng.random(30)))
        # Ids 3 and 65,539 collide modulo 2**16: a wrapped key would
        # interleave their rows.
        rows.append((np.array([3, 65_539], dtype=np.int64), np.array([0.5, 0.5])))
        matrix = LevelMatrix.build(rows, n_links)
        col_rows, col_indptr = _int64_csc(matrix)
        assert np.array_equal(matrix.col_rows, col_rows)
        assert np.array_equal(matrix.col_indptr, col_indptr)
        assert matrix.flows_on_link(65_539).tolist() == [
            i for i, (idx, _) in enumerate(rows) if 65_539 in idx
        ]
