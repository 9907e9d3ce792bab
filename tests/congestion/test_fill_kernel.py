"""``fill_matrix`` against a scalar progressive filling that shares no code
with it, plus the kernel's named edge cases and its pass count.

The reference below handles one event at a time — the next demand that
binds or the next link that saturates — with plain Python floats, dicts and
loops: no level matrix, no numpy, no batching, no tolerance.  Where the
kernel lumps links within ``_REL_TOL`` into one pass the two may differ by
that much, which is what the comparison allows.
"""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congestion import FlowSpec, WeightProvider, fill_matrix, waterfill
from repro.congestion.linkweights import LevelMatrix
from repro.errors import CongestionControlError
from repro.topology import FoldedClosTopology, TorusTopology

REL = 1e-9


def reference_fill(rows, phi, demand, residual, linkless_cap):
    """Progressive filling, one flow or link event at a time.

    *rows* are ``{link: weight}`` dicts.  Returns ``(rates, bottlenecks)``
    with ``None`` for flows no link froze.
    """
    n = len(rows)
    rates = [0.0] * n
    bottleneck = [None] * n
    claimed = [0.0] * len(residual)  # load of frozen flows per link
    active = set()
    for i, row in enumerate(rows):
        if row:
            active.add(i)
        else:
            rates[i] = min(demand[i], linkless_cap)
    while active:
        # The earliest event: (level, is_link_event, id).  A demand wins a
        # tie with a link, a lower id wins a tie within its kind.
        best = (math.inf, False, -1)
        for i in sorted(active):
            if demand[i] != math.inf:
                best = min(best, (demand[i] / phi[i], False, i))
        for link in range(len(residual)):
            per_level = sum(rows[i][link] * phi[i] for i in active if link in rows[i])
            if per_level > 0.0:
                left = max(residual[link] - claimed[link], 0.0)
                best = min(best, (left / per_level, True, link))
        level, is_link, which = best
        if level == math.inf:
            raise CongestionControlError("reference diverged")
        if is_link:
            frozen = [i for i in sorted(active) if which in rows[i]]
            for i in frozen:
                rates[i] = phi[i] * level
                bottleneck[i] = which
        else:
            frozen = [which]
            rates[which] = demand[which]
        for i in frozen:
            active.discard(i)
            for link, weight in rows[i].items():
                claimed[link] += weight * rates[i]
    return rates, bottleneck


def build(rows, n_links):
    """A ``LevelMatrix`` from ``{link: weight}`` dict rows."""
    sparse = []
    for row in rows:
        links = sorted(row)
        sparse.append((
            np.array(links, dtype=np.int64),
            np.array([row[link] for link in links], dtype=np.float64),
        ))
    return LevelMatrix.build(sparse, n_links)


def run_kernel(rows, phi, demand, residual, linkless_cap=0.0):
    rate, bn, passes = fill_matrix(
        build(rows, len(residual)),
        np.array(phi, dtype=np.float64),
        np.array(demand, dtype=np.float64),
        np.array(residual, dtype=np.float64),
        linkless_cap=linkless_cap,
    )
    return rate.tolist(), bn.tolist(), passes


def check_certificate(rows, phi, demand, residual, rates, bn):
    """What makes an allocation *the* weighted max-min one, checked from
    the result alone."""
    load = [0.0] * len(residual)
    for row, rate in zip(rows, rates):
        for link, weight in row.items():
            load[link] += weight * rate
    for link, cap in enumerate(residual):
        assert load[link] - cap <= REL * max(cap, 1.0), f"link {link} over capacity"
    for i, row in enumerate(rows):
        assert rates[i] <= demand[i]
        if not row:
            assert bn[i] == -1
        elif bn[i] == -1:
            assert rates[i] == demand[i]  # demand-frozen: the demand, bit for bit
        else:
            link = bn[i]
            assert link in row, f"flow {i}: bottleneck {link} is not on its path"
            assert load[link] >= residual[link] * (1 - REL) - 1e-6, f"link {link} not saturated"
            level = rates[i] / phi[i]
            for j, other in enumerate(rows):
                if link in other:
                    assert rates[j] / phi[j] <= level * (1 + REL) + 1e-6


FABRICS = {
    "torus3x3": lambda: TorusTopology((3, 3)),
    "torus4x4": lambda: TorusTopology((4, 4)),
    "torus2x2x3": lambda: TorusTopology((2, 2, 3)),
    "clos16": lambda: FoldedClosTopology(16, radix=8),
}


@functools.lru_cache(maxsize=None)
def fabric(name):
    """One topology + provider per fabric (link weights are immutable)."""
    topology = FABRICS[name]()
    return topology, WeightProvider(topology)


def random_case(name, seed, n_flows):
    """Rows, weights, demands and residuals: weighted, finite and infinite
    demands, link-less rows, zero-residual and degraded links."""
    topology, provider = fabric(name)
    rng = random.Random(seed)
    rows, phi, demand = [], [], []
    for flow_id in range(n_flows):
        if rng.random() < 0.1:
            rows.append({})  # src == dst
        else:
            src, dst = rng.sample(range(topology.n_nodes), 2)
            protocol = rng.choice(["rps", "ecmp", "rps"])
            idx, val = provider.weights_for(FlowSpec(flow_id, src, dst, protocol))
            rows.append(dict(zip(idx.tolist(), val.tolist())))
        phi.append(rng.choice([0.5, 1.0, 1.0, 2.0, 3.0]))
        demand.append(math.inf if rng.random() < 0.4 else rng.randrange(0, 12_001) * 1e6)
    residual = [
        link.capacity_bps * rng.choice([0.0, 0.1, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        for link in topology.links
    ]
    return rows, phi, demand, residual, topology.capacity_bps


class TestAgainstScalarReference:
    @given(
        name=st.sampled_from(sorted(FABRICS)),
        seed=st.integers(0, 10**6),
        n_flows=st.integers(1, 12),
    )
    @settings(max_examples=120, deadline=None)
    def test_rates_match_and_certificate_holds(self, name, seed, n_flows):
        rows, phi, demand, residual, linkless_cap = random_case(name, seed, n_flows)
        rates, bn, passes = run_kernel(rows, phi, demand, residual, linkless_cap)
        want, _ = reference_fill(rows, phi, demand, residual, linkless_cap)
        for i, (got, ref) in enumerate(zip(rates, want)):
            assert abs(got - ref) <= REL * max(abs(ref), 1.0), (
                f"{name} seed={seed} flow {i}: {got} vs {ref}"
            )
        check_certificate(rows, phi, demand, residual, rates, bn)
        assert passes <= sum(1 for row in rows if row)  # every pass freezes a flow

    def test_reference_itself_on_a_known_answer(self):
        """Two flows share link 0 (10); the second also crosses link 1 (3)."""
        rows = [{0: 1.0}, {0: 1.0, 1: 1.0}]
        rates, bn = reference_fill(rows, [1.0, 1.0], [math.inf, math.inf], [10.0, 3.0], 0.0)
        assert rates == [7.0, 3.0]
        assert bn == [0, 1]


class TestNamedEdgeCases:
    def test_all_demand_limited_is_one_pass_and_consults_no_link(self, monkeypatch):
        calls = []
        flows_on_link = LevelMatrix.flows_on_link
        monkeypatch.setattr(
            LevelMatrix, "flows_on_link",
            lambda self, link: calls.append(link) or flows_on_link(self, link),
        )
        rows = [{0: 1.0, 1: 1.0}, {1: 1.0}, {0: 0.5, 2: 0.5}, {}]
        demand = [1.0, 2.0, 3.0, 4.0]
        rates, bn, passes = run_kernel(rows, [1.0, 2.0, 1.0, 1.0], demand, [10.0] * 3, 9.0)
        assert rates == demand
        assert bn == [-1] * 4
        assert passes == 1
        assert calls == []

    @pytest.mark.parametrize("nudge", [-5e-10, 0.0, 5e-10])
    def test_demand_level_within_tolerance_of_the_saturation_level(self, nudge):
        """Either attribution is max-min to within the tolerance; what must
        hold is rate <= demand and no oversubscription."""
        demand = 5.0 * (1 + nudge)
        rows = [{0: 1.0}, {0: 1.0}]
        rates, bn, _ = run_kernel(rows, [1.0, 1.0], [demand, math.inf], [10.0])
        assert rates[0] <= demand
        assert rates[0] == pytest.approx(5.0, rel=REL)
        assert rates[1] == pytest.approx(5.0, rel=REL)
        assert sum(rates) <= 10.0 * (1 + 1e-15)
        # At or below the saturation level the demand binds first.
        assert (bn[0] == -1) == (nudge <= 0.0)
        assert bn[1] == 0

    def test_two_links_saturating_in_one_pass_lower_id_wins(self):
        # Flow 0 crosses links 1 and 2, flow 1 only link 2; both links
        # saturate at level 5 in the same pass.
        rows = [{1: 1.0, 2: 1.0}, {2: 1.0}, {0: 1.0}]
        rates, bn, passes = run_kernel(rows, [1.0] * 3, [math.inf] * 3, [40.0, 5.0, 10.0])
        assert rates == [5.0, 5.0, 40.0]
        assert bn == [1, 2, 0]
        assert passes == 2

    def test_links_tied_within_tolerance_share_a_pass(self):
        rows = [{0: 1.0}, {1: 1.0}]
        rates, bn, passes = run_kernel(
            rows, [1.0, 1.0], [math.inf, math.inf], [10.0, 10.0 * (1 + 5e-10)]
        )
        assert passes == 1
        assert rates == [10.0, 10.0]
        assert bn == [0, 1]

    def test_demand_frozen_flow_keeps_its_claim_on_the_next_saturating_link(self):
        rows = [{0: 1.0, 1: 1.0}, {0: 1.0}, {0: 1.0}]
        rates, bn, passes = run_kernel(
            rows, [1.0] * 3, [2.0, math.inf, math.inf], [10.0, 10.0]
        )
        assert rates == [2.0, 4.0, 4.0]
        assert bn == [-1, 0, 0]
        assert passes == 2

    def test_demand_batches_interleave_with_link_passes(self):
        """Freezing the 1.0 flow lifts link 0's level from 10/3 to 4.5, past
        the 4.0 demand: a second demand pass, then the link."""
        rows = [{0: 1.0}] * 3
        rates, bn, passes = run_kernel(rows, [1.0] * 3, [1.0, 4.0, math.inf], [10.0])
        assert rates == [1.0, 4.0, 5.0]
        assert bn == [-1, -1, 0]
        assert passes == 3

    def test_a_demand_batch_stops_at_the_saturation_level(self):
        """Flow 0's demand opens a demand pass; flow 1's (just above link
        0's level) must not ride along — link 0 caps it."""
        rows = [{1: 1.0}, {0: 1.0}, {0: 1.0}]
        rates, bn, passes = run_kernel(
            rows, [1.0] * 3, [1.0, 5.02, math.inf], [10.0, 10.0]
        )
        assert rates == [1.0, 5.0, 5.0]
        assert bn == [-1, 0, 0]
        assert passes == 2

    def test_no_binding_constraint_still_raises(self):
        with pytest.raises(CongestionControlError, match="diverged"):
            run_kernel([{0: 0.0}], [1.0], [math.inf], [10.0])
        # ... also once some flows have frozen.
        with pytest.raises(CongestionControlError, match="diverged"):
            run_kernel([{0: 1.0}, {1: 0.0}], [1.0, 1.0], [3.0, math.inf], [10.0, 10.0])

    def test_inputs_are_not_mutated(self):
        matrix = build([{0: 1.0}, {0: 1.0, 1: 1.0}], 2)
        phi, demand, residual = np.ones(2), np.array([2.0, np.inf]), np.array([10.0, 3.0])
        before = [a.copy() for a in (phi, demand, residual, matrix.data, matrix.indices)]
        fill_matrix(matrix, phi, demand, residual)
        for old, new in zip(before, (phi, demand, residual, matrix.data, matrix.indices)):
            assert np.array_equal(old, new)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_lower_priority_gets_only_dust_on_links_the_upper_level_saturated(self, seed):
        topology, provider = fabric("torus4x4")
        rng = random.Random(seed)
        flows = []
        for flow_id in range(10):
            src, dst = rng.sample(range(topology.n_nodes), 2)
            flows.append(FlowSpec(
                flow_id, src, dst, rng.choice(["rps", "ecmp"]),
                weight=rng.choice([1.0, 2.0]),
                priority=flow_id % 2,
                demand_bps=math.inf if rng.random() < 0.7 else rng.randrange(1, 8000) * 1e6,
            ))
        allocation = waterfill(topology, flows, provider, headroom=0.05)
        upper = waterfill(topology, [f for f in flows if f.priority == 0], provider, headroom=0.05)
        saturated = set(
            np.flatnonzero(upper.link_load_bps >= upper.link_capacity_bps * (1 - REL)).tolist()
        )
        for spec in flows:
            if spec.priority == 0:
                assert allocation.rates_bps[spec.flow_id] == upper.rates_bps[spec.flow_id]
            elif saturated & set(provider.weights_for(spec)[0].tolist()):
                assert allocation.rates_bps[spec.flow_id] <= 1e-3
        over = allocation.link_load_bps - allocation.link_capacity_bps
        assert float(over.max()) <= REL * topology.capacity_bps


def epoch_population(n_nodes, n_flows, seed, inf_share=0.1):
    """§3.3.2's population as r2c2bench's ``epoch_churn512`` draws it: rps
    flows between uniform pairs, 90 % host-limited at U(0.5, 4) Gb/s in whole
    Mb/s, 10 % network-limited."""
    rng = random.Random(seed)
    flows = []
    for flow_id in range(n_flows):
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes - 1)
        dst += dst >= src
        demand = math.inf if rng.random() < inf_share else rng.randrange(500, 4001) * 1e6
        flows.append(FlowSpec(flow_id, src, dst, "rps", demand_bps=demand))
    return flows


class TestPassCount:
    def test_passes_follow_binding_constraints_not_flows(self):
        """512 flows of which a few dozen are capacity-bound: the level-
        stepping fill made one round per flow here (469 on this input)."""
        topology = TorusTopology((8, 8, 8))
        flows = epoch_population(topology.n_nodes, 512, seed=13)
        allocation = waterfill(topology, flows, WeightProvider(topology), headroom=0.05)
        capacity_frozen = sum(1 for bn in allocation.bottleneck_link.values() if bn is not None)
        assert 0 < capacity_frozen < 100
        assert allocation.iterations <= 2 * capacity_frozen + 2
        for spec in flows:
            if allocation.bottleneck_link[spec.flow_id] is None:
                assert allocation.rates_bps[spec.flow_id] == spec.demand_bps
