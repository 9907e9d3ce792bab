"""Seeded input generators for r2c2bench.

Everything the program under test sees comes from here: flow traces, flow
populations, epoch batches and daemon op lists, each a pure function of
``(sizes, seed)``.  The generators are deliberately *low-variance*: the
driver compares runs made with different seeds, so the amount of work in an
input must not swing with the draw, or the benchmark would measure the seed
instead of the code.  Two devices keep it steady while every endpoint,
arrival time, demand and op choice still comes from the seed:

* trace flow sizes are the exact quantile midpoints of the paper's capped
  Pareto (the same multiset for every seed) instead of i.i.d. draws — with
  shape 1.05 a single i.i.d. draw moves total bytes by 2-3x;
* the assignment of sizes to flows is redrawn until the trace's
  byte-hop total is within 1 % of nominal (total bytes x mean fabric
  distance), because wall time follows packet-hops, and one 7 MB flow at
  distance 1 instead of 6 moves them by 10 %.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.congestion.flowstate import FlowSpec
from repro.workloads import FlowArrival, ParetoSizes, PoissonArrivals

#: The paper's default size distribution, capped so one flow cannot
#: dominate a finite run (ISSUE: Pareto(100 KiB, 1.05), cap 20 MB).
SIZES = ParetoSizes(100 * 1024, 1.05, 20_000_000)
MEAN_INTERARRIVAL_NS = 5000
BYTE_HOP_TOLERANCE = 0.01
#: Shuffles tried before settling for the closest one (a 1000-flow trace
#: needs ~10; the bound only matters for tiny --quick traces).
BYTE_HOP_TRIES = 500


def digest(obj) -> str:
    """Short SHA-256 of an input's ``repr`` (printed as ``input_digest``)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _random_pair(rng: random.Random, n_nodes: int) -> Tuple[int, int]:
    src = rng.randrange(n_nodes)
    dst = rng.randrange(n_nodes - 1)
    return src, dst + (dst >= src)


def rack_trace(topology, n_flows: int, seed: int) -> List[FlowArrival]:
    """Poisson arrivals, uniform endpoints, stratified capped-Pareto sizes."""
    rng = random.Random(seed)
    sizes = [
        max(1, int(min(SIZES.x_min / ((i + 0.5) / n_flows) ** (1.0 / SIZES.shape),
                       SIZES.cap_bytes)))
        for i in range(n_flows)
    ]
    times = PoissonArrivals(MEAN_INTERARRIVAL_NS).first_n(rng, n_flows)
    pairs = [_random_pair(rng, topology.n_nodes) for _ in range(n_flows)]
    hops = [topology.distance(src, dst) for src, dst in pairs]
    nominal = sum(sizes) * topology.average_distance()
    best, best_error = sizes, math.inf
    for _ in range(BYTE_HOP_TRIES):
        rng.shuffle(sizes)
        byte_hops = sum(size * hop for size, hop in zip(sizes, hops))
        error = abs(byte_hops / nominal - 1.0)
        if error < best_error:
            best, best_error = list(sizes), error
        if error <= BYTE_HOP_TOLERANCE:
            break
    sizes = best
    return [
        FlowArrival(flow_id=i, src=src, dst=dst, size_bytes=size, start_ns=start)
        for i, ((src, dst), size, start) in enumerate(zip(pairs, sizes, times))
    ]


def _demand_bps(rng: random.Random, inf_share: float) -> float:
    """§3.3.2: host-limited U(0.5, 4) Gb/s, or (with probability
    *inf_share*) network-limited.

    Whole Mb/s, so the control wire's 24-bit Mb/s demand field is lossless
    and the daemon allocates from exactly the spec the oracle holds.
    """
    if rng.random() < inf_share:
        return math.inf
    return rng.randrange(500, 4001) * 1e6


def _spec(rng: random.Random, flow_id: int, n_nodes: int, protocol: str,
          inf_share: float) -> FlowSpec:
    src, dst = _random_pair(rng, n_nodes)
    return FlowSpec(flow_id, src, dst, protocol, demand_bps=_demand_bps(rng, inf_share))


def population(n_nodes: int, n_flows: int, protocol: str, rng: random.Random,
               inf_share: float) -> List[FlowSpec]:
    """The standing flow set a control-plane workload starts from."""
    return [_spec(rng, i, n_nodes, protocol, inf_share) for i in range(n_flows)]


#: Epoch batch kinds (also the tags the tracer files recompute spans under).
IDLE, DEMAND, MEMBER = "idle", "demand", "member"
EPOCH_INF_SHARE = 0.1


@dataclass(frozen=True)
class EpochInput:
    population: List[FlowSpec]
    #: per epoch: (kind, ops); ops are ("demand", id, bps) | ("finish", id)
    #: | ("start", spec), applied in order before the epoch's recompute.
    batches: List[Tuple[str, tuple]]


def epoch_input(n_nodes: int, n_flows: int, n_epochs: int, seed: int) -> EpochInput:
    """10 % idle epochs, 60 % four demand updates, 30 % one finish + one start,
    over a population that is 90 % host-limited and 10 % network-limited."""
    rng = random.Random(seed)
    flows = population(n_nodes, n_flows, "rps", rng, EPOCH_INF_SHARE)
    live = [spec.flow_id for spec in flows]
    next_id = n_flows
    batches: List[Tuple[str, tuple]] = []
    for _ in range(n_epochs):
        u = rng.random()
        if u < 0.1:
            batches.append((IDLE, ()))
        elif u < 0.7:
            batches.append((DEMAND, tuple(
                ("demand", rng.choice(live), _demand_bps(rng, inf_share=0.0))
                for _ in range(4)
            )))
        else:
            slot = rng.randrange(len(live))
            gone, live[slot] = live[slot], next_id
            batches.append((MEMBER, (
                ("finish", gone),
                ("start", _spec(rng, next_id, n_nodes, "rps", EPOCH_INF_SHARE)),
            )))
            next_id += 1
    return EpochInput(flows, batches)


QUERY, ANNOUNCE, FINISH = "query", "announce", "finish"


@dataclass(frozen=True)
class DaemonInput:
    population: List[FlowSpec]
    #: (QUERY, flow_id) | (ANNOUNCE, spec) | (FINISH, flow_id)
    ops: List[tuple]


def daemon_input(n_nodes: int, n_flows: int, n_ops: int, seed: int,
                 protocol: str = "ecmp", slack: int = 8) -> DaemonInput:
    """50 % query, 15 % demand re-announce, 17.5 % finish, 17.5 % new flow.

    Every flow is host-limited — the regime the incremental allocator was
    built for (network-limited flows weld the rack into one saturation
    component and every patch degenerates to a near-full refill).  The live
    set is held at ``n_flows ± slack``: a finish at the lower edge (or a new
    flow at the upper) is turned into its opposite.

    What a patch costs follows the size of its affected set, and where the
    ~30 saturated links of a population fall is luck: between seeds the
    median set size varies by 8 % and its p95 by 11 % (holding the offered
    load at nominal was tried and does not reduce it).
    """
    rng = random.Random(seed)
    flows = population(n_nodes, n_flows, protocol, rng, inf_share=0.0)
    specs: Dict[int, FlowSpec] = {spec.flow_id: spec for spec in flows}
    live = list(specs)
    next_id = n_flows
    ops: List[tuple] = []
    for _ in range(n_ops):
        u = rng.random()
        if u < 0.5:
            ops.append((QUERY, rng.choice(live)))
        elif u < 0.65:
            flow_id = rng.choice(live)
            spec = specs[flow_id].with_demand(_demand_bps(rng, inf_share=0.0))
            specs[flow_id] = spec
            ops.append((ANNOUNCE, spec))
        else:
            want_finish = u < 0.825
            if len(live) <= n_flows - slack:
                want_finish = False
            elif len(live) >= n_flows + slack:
                want_finish = True
            if want_finish:
                slot = rng.randrange(len(live))
                live[slot], live[-1] = live[-1], live[slot]
                flow_id = live.pop()
                del specs[flow_id]
                ops.append((FINISH, flow_id))
            else:
                spec = _spec(rng, next_id, n_nodes, protocol, inf_share=0.0)
                specs[next_id] = spec
                live.append(next_id)
                next_id += 1
                ops.append((ANNOUNCE, spec))
    return DaemonInput(flows, ops)
