"""Golden allocations: the daemon's answers pinned across commits.

The churn oracles compare the incremental allocator with a scratch fill of
the *same* commit to 1e-6, so a patch rewrite that moves every rate by an
ulp passes them all.  These pins are the cross-commit half, the way
``tests/sim/test_golden_runs.py`` pins simulations: the SHA-256 of the full
``(flow, rate, bottleneck)`` table after every 250th write of a seeded
3,000-write ecmp list on an 8x8x8 torus, plus the final link loads and pass
count.  They were taken at ``e917512`` — the last commit whose patch ran
through ``fill_matrix`` — and a change to the patch must leave them
untouched (print current values with ``python
tests/service/test_golden_allocations.py``).
"""

import hashlib
import random
import struct

import numpy as np
import pytest

from repro.congestion import FlowSpec, IncrementalWaterfill
from repro.topology import TorusTopology

pytestmark = pytest.mark.service

N_FLOWS, N_WRITES, EVERY, SEED = 512, 3_000, 250, 2023


def _spec(rng, flow_id, n_nodes):
    src = rng.randrange(n_nodes)
    dst = rng.randrange(n_nodes - 1)
    if dst >= src:
        dst += 1
    return FlowSpec(
        flow_id, src, dst, "ecmp",
        weight=rng.choice((1.0, 1.0, 1.0, 2.0)),
        demand_bps=rng.randrange(500, 4001) * 1e6,
    )


def _writes(n_nodes):
    """Preload, then 40 % demand re-announce, 30 % finish, 30 % new flow."""
    rng = random.Random(SEED)
    specs = {i: _spec(rng, i, n_nodes) for i in range(N_FLOWS)}
    preload = list(specs.values())
    next_id = N_FLOWS
    writes = []
    for _ in range(N_WRITES):
        roll = rng.random()
        if roll < 0.4:
            flow_id = rng.choice(sorted(specs))
            specs[flow_id] = specs[flow_id].with_demand(rng.randrange(500, 4001) * 1e6)
            writes.append(("announce", specs[flow_id]))
        elif roll < 0.7 and len(specs) > N_FLOWS - 8:
            flow_id = rng.choice(sorted(specs))
            del specs[flow_id]
            writes.append(("finish", flow_id))
        else:
            specs[next_id] = _spec(rng, next_id, n_nodes)
            writes.append(("announce", specs[next_id]))
            next_id += 1
    return preload, writes


def _table_digest(inc):
    h = hashlib.sha256()
    for spec in inc.flows():
        bn = inc.bottleneck(spec.flow_id)
        h.update(struct.pack("<qdq", spec.flow_id, inc.rate(spec.flow_id),
                             -1 if bn is None else bn))
    return h.hexdigest()[:16]


def _replay():
    topology = TorusTopology((8, 8, 8))
    inc = IncrementalWaterfill(topology, headroom=0.05)
    preload, writes = _writes(topology.n_nodes)
    for spec in preload:
        inc.add_flow(spec)
    tables = []
    for index, (kind, arg) in enumerate(writes, start=1):
        if kind == "announce":
            inc.add_flow(arg)
        else:
            inc.remove_flow(arg)
        if index % EVERY == 0:
            tables.append(_table_digest(inc))
    load = np.asarray(inc._load, dtype=np.float64).tobytes()
    return tables, hashlib.sha256(load).hexdigest()[:16], inc._rounds, inc.stats()


#: taken at e917512 (numpy patch through ``fill_matrix``)
PINNED_TABLES = [
    "6918e42684aa7d0a",
    "6e2614eed9739119",
    "6b63be5ade929a2b",
    "5de731932963d6e1",
    "5336a3802b7a51e6",
    "8af59b62c2a398de",
    "e56c3cb51f9d0e62",
    "732c5755f8d2e517",
    "8d211a20120aac9d",
    "008c4ad62729987c",
    "6f1b27e41a90bf38",
    "31df6475c1d0ad02",
]
PINNED_LOAD = "31d095d4547c8227"
PINNED_ROUNDS = 22607
PINNED_FALLBACKS = {"certification": 44}


def test_allocations_are_bit_equal_to_the_pinned_commit():
    tables, load, rounds, stats = _replay()
    assert tables == PINNED_TABLES
    assert (load, rounds) == (PINNED_LOAD, PINNED_ROUNDS)
    assert stats["fallback_reasons"] == PINNED_FALLBACKS
    # the pins witness the patch, not the scratch fill behind it
    assert stats["incremental_ratio"] > 0.95


if __name__ == "__main__":
    tables_, load_, rounds_, stats_ = _replay()
    print("PINNED_TABLES = [")
    for digest in tables_:
        print(f'    "{digest}",')
    print("]")
    print(f'PINNED_LOAD = "{load_}"')
    print(f"PINNED_ROUNDS = {rounds_}")
    print(f"PINNED_FALLBACKS = {stats_['fallback_reasons']}")
    print(f"# incremental_ratio {stats_['incremental_ratio']:.4f}")
