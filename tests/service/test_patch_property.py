"""Random op sequences through the incremental allocator.

Three things are checked after **every** operation, on fabrics and row
kinds the seeded churn oracles do not draw (2-D and 3-D tori, a Clos;
ecmp / dor / rps rows; weights; finite, infinite and equal demands;
link-less ``src == dst`` flows; degraded and zero-capacity links):

* the live rates against a scratch fill, to 1e-9;
* the max-min certificate on the live state itself — loads consistent with
  rates and within capacity, every bottleneck a saturated link on the
  flow's path where it holds the top level, every other flow at its demand;
* every committed patch against the vectorized patch this allocator used
  before it went scalar (``fill_matrix`` on the affected rows, kept here as
  the reference), bit for bit: rates, bottlenecks, link loads, pass count.

And so that the oracle cannot pass by never patching, the patch share of
each sequence is asserted.
"""

import functools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congestion import FlowSpec, IncrementalWaterfill, fill_matrix
from repro.congestion.linkweights import LevelMatrix
from repro.topology import FoldedClosTopology, TorusTopology
from repro.validation import compare_against_scratch

pytestmark = pytest.mark.service

REL = 1e-9

FABRICS = {
    "torus3x3": lambda: TorusTopology((3, 3)),
    "torus4x4": lambda: TorusTopology((4, 4)),
    "torus2x2x3": lambda: TorusTopology((2, 2, 3)),
    "clos16": lambda: FoldedClosTopology(16, radix=8),
}


@functools.lru_cache(maxsize=None)
def fabric(name):
    return FABRICS[name]()


#: calls of the kernel's summed-claim retirement (its only use of
#: ``_ragged_ranges``): more than four rows froze in one pass
SUMMED_RETIREMENTS = [0]


@pytest.fixture(autouse=True)
def count_summed_retirements(monkeypatch):
    kernel = sys.modules["repro.congestion.waterfill"]  # the package attribute is the function
    ragged_ranges = kernel._ragged_ranges

    def counted(starts, counts):
        SUMMED_RETIREMENTS[0] += 1
        return ragged_ranges(starts, counts)

    monkeypatch.setattr(kernel, "_ragged_ranges", counted)


def vectorized_patch(inc, affected, loads):
    """The patch as it was computed through ``fill_matrix``: what the
    affected flows get, the load vector after, and the passes it took."""
    n_links = inc.topology.n_links
    load = inc._load.copy()
    if loads:
        load[list(loads)] = list(loads.values())
    aff = sorted(affected)
    rows = [
        (np.array(inc._rows[fid][0], dtype=np.int64), np.array(inc._rows[fid][1], dtype=np.float64))
        for fid in aff
    ]
    aff_load = np.zeros(n_links)
    for fid, (idx, frac) in zip(aff, rows):
        old = inc._rates.get(fid, 0.0)
        if old:
            aff_load[idx] += frac * old
    base_load = np.maximum(load - aff_load, 0.0)
    residual = np.maximum(inc._cap - base_load, 0.0)
    matrix = LevelMatrix.build(rows, n_links)
    specs = [inc._specs[fid] for fid in aff]
    rate, bn, passes = fill_matrix(
        matrix,
        np.array([s.weight for s in specs], dtype=np.float64),
        np.array([s.demand_bps for s in specs], dtype=np.float64),
        residual,
        linkless_cap=inc.topology.capacity_bps,
    )
    new_load = base_load
    if matrix.indices.size:
        new_load = base_load + np.bincount(
            matrix.indices, weights=matrix.data * np.repeat(rate, matrix.row_nnz),
            minlength=n_links,
        )
    return dict(zip(aff, zip(rate.tolist(), bn.tolist()))), new_load, passes


def spy_on_patches(inc):
    """Compare every committed patch with :func:`vectorized_patch`."""
    scalar_patch = inc._try_patch
    seen = {"patches": 0, "summed": 0}

    def checked(affected, loads):
        summed_before = SUMMED_RETIREMENTS[0]
        want, want_load, want_passes = vectorized_patch(inc, affected, loads)
        summed = SUMMED_RETIREMENTS[0] > summed_before
        rounds = inc._rounds
        committed = scalar_patch(affected, loads)
        if committed:
            seen["patches"] += 1
            for fid, (rate, bn) in want.items():
                assert inc._rates[fid] == rate, f"flow {fid}: {inc._rates[fid]!r} != {rate!r}"
                assert inc._bottleneck[fid] == (None if bn < 0 else bn)
            assert inc._load.tobytes() == want_load.tobytes()
            assert inc._rounds - rounds == want_passes
            seen["summed"] += summed
        return committed

    inc._try_patch = checked
    return seen


def check_live_certificate(inc):
    cap = inc._cap
    load = np.zeros(inc.topology.n_links)
    for spec in inc.flows():
        links, fracs = inc._rows[spec.flow_id]
        load[links] += np.array(fracs) * inc.rate(spec.flow_id)
    assert np.all(np.abs(load - inc._load) <= REL * np.maximum(cap, 1.0)), "loads drifted from rates"
    assert np.all(load <= cap + REL * np.maximum(cap, 1.0)), "a link is over capacity"
    for spec in inc.flows():
        fid, rate = spec.flow_id, inc.rate(spec.flow_id)
        links, _ = inc._rows[fid]
        link = inc.bottleneck(fid)
        assert rate <= spec.demand_bps
        if link is None:
            assert rate == (spec.demand_bps if links else min(spec.demand_bps, inc.topology.capacity_bps))
            continue
        assert link in links, f"flow {fid}: bottleneck {link} is off its path"
        assert load[link] >= cap[link] * (1 - REL) - 1e-6, f"bottleneck {link} is not saturated"
        level = rate / spec.weight
        for other in inc._link_flows[link]:
            assert inc.rate(other) / inc._specs[other].weight <= level * (1 + REL) + 1e-6


def random_spec(rng, topology, flow_id, shared_demand):
    if rng.random() < 0.1:
        src = dst = rng.randrange(topology.n_nodes)  # link-less
    else:
        src, dst = rng.sample(range(topology.n_nodes), 2)
    roll = rng.random()
    if roll < 0.3:
        demand = math.inf
    elif roll < 0.55:
        demand = shared_demand  # equal demands freeze together
    else:
        demand = rng.randrange(1, 12_001) * 1e6
    return FlowSpec(
        flow_id, src, dst, rng.choice(("ecmp", "dor", "rps")),
        weight=rng.choice((0.5, 1.0, 1.0, 2.0, 3.0)), demand_bps=demand,
    )


def run_sequence(name, seed, n_ops):
    topology = fabric(name)
    rng = random.Random(seed)
    capacities = np.array([
        link.capacity_bps * rng.choice((0.0, 0.1, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0))
        for link in topology.links
    ])
    inc = IncrementalWaterfill(topology, capacities=capacities)
    seen = spy_on_patches(inc)
    shared_demand = rng.randrange(1, 2_001) * 1e6
    live, next_id = [], 0
    for _ in range(n_ops):
        roll = rng.random()
        if not live or roll < 0.5:
            inc.add_flow(random_spec(rng, topology, next_id, shared_demand))
            live.append(next_id)
            next_id += 1
        elif roll < 0.65:
            inc.add_flow(random_spec(rng, topology, rng.choice(live), shared_demand))
        elif roll < 0.8:
            inc.update_demand(rng.choice(live), rng.randrange(1, 12_001) * 1e6)
        else:
            inc.remove_flow(live.pop(rng.randrange(len(live))))
        worst = max(compare_against_scratch(inc).values(), default=0.0)
        assert worst <= REL, f"{name} seed={seed}: diverged from scratch by {worst}"
        check_live_certificate(inc)
    return inc, seen


class TestOpSequences:
    @given(
        name=st.sampled_from(sorted(FABRICS)),
        seed=st.integers(0, 10**6),
        n_ops=st.integers(12, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_op_is_right_and_most_are_patches(self, name, seed, n_ops):
        inc, seen = run_sequence(name, seed, n_ops)
        stats = inc.stats()
        assert "affected_set" not in stats["fallback_reasons"]  # tables under the floor
        assert stats["incremental_ratio"] >= 0.5, stats
        assert seen["patches"] == stats["incremental_ops"]

    def test_sequences_reach_the_summed_retirement(self):
        """More than four rows freezing in one pass retire through a summed
        claim, which rounds differently from one-by-one: the sequences above
        must get there for the bit-equality check to cover it."""
        assert sum(run_sequence("torus4x4", seed, 40)[1]["summed"] for seed in range(4)) >= 5

    def test_six_equal_demands_freeze_in_one_pass(self):
        """Named case: six flows capped at the same demand share a link with
        an elastic one; the patch that adds the seventh freezes all six in
        the first pass and must then retire them as the kernel does."""
        topology = fabric("torus4x4")
        inc = IncrementalWaterfill(topology)
        seen = spy_on_patches(inc)
        for fid in range(6):
            inc.add_flow(FlowSpec(fid, 0, 2, "dor", demand_bps=topology.capacity_bps / 13.0))
        inc.add_flow(FlowSpec(6, 0, 3, "dor", weight=3.0))
        inc.add_flow(FlowSpec(7, 1, 3, "dor"))
        assert seen["patches"] == 8 and seen["summed"] >= 1
        assert max(compare_against_scratch(inc).values()) <= REL
        check_live_certificate(inc)
