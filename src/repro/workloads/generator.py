"""Flow-trace generation: the workloads the evaluation section runs.

A *flow trace* is a time-ordered list of :class:`FlowArrival` records.  The
two workload families of §5:

* :func:`poisson_trace` — Poisson arrivals, random endpoint pairs, sizes
  from a distribution (Figures 7, 10-17);
* :func:`permutation_load_trace` — a fraction ``L`` of nodes each start one
  long-running flow to a distinct destination (Figure 18).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ReproError
from ..topology.base import Topology
from ..types import FlowId, NodeId
from .arrivals import ArrivalProcess, PoissonArrivals
from .sizes import FlowSizeDistribution, ParetoSizes


@dataclass(frozen=True)
class FlowArrival:
    """One flow in a trace.

    ``app_rate_bps`` marks a host-limited flow (§3.3.2): the application
    produces bytes at that rate, so the flow can never use more — the
    demand-estimation machinery detects this and frees the difference.
    ``None`` means network-limited (all bytes available at start).
    """

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    size_bytes: int
    start_ns: int
    protocol: str = "rps"
    weight: float = 1.0
    priority: int = 0
    tenant: Optional[str] = None
    app_rate_bps: Optional[float] = None


def uniform_random_pair(topology: Topology, rng: random.Random) -> Tuple[NodeId, NodeId]:
    """A uniformly random ordered pair of distinct nodes."""
    n = topology.n_nodes
    if n < 2:
        raise ReproError("need at least two nodes for traffic")
    src = rng.randrange(n)
    dst = rng.randrange(n - 1)
    if dst >= src:
        dst += 1
    return src, dst


def poisson_trace(
    topology: Topology,
    n_flows: int,
    mean_interarrival_ns: float,
    sizes: Optional[FlowSizeDistribution] = None,
    arrivals: Optional[ArrivalProcess] = None,
    protocol: str = "rps",
    seed: int = 0,
    first_flow_id: int = 0,
) -> List[FlowArrival]:
    """The paper's default synthetic workload (§5.2).

    Poisson arrivals with the given mean inter-arrival time, uniformly
    random endpoints, Pareto(1.05, 100 KB) sizes unless overridden.
    """
    if n_flows < 0:
        raise ReproError(f"n_flows must be >= 0, got {n_flows}")
    rng = random.Random(seed)
    sizes = sizes if sizes is not None else ParetoSizes()
    arrivals = arrivals if arrivals is not None else PoissonArrivals(mean_interarrival_ns)
    trace: List[FlowArrival] = []
    times = arrivals.first_n(rng, n_flows)
    for i, start_ns in enumerate(times):
        src, dst = uniform_random_pair(topology, rng)
        trace.append(
            FlowArrival(
                flow_id=first_flow_id + i,
                src=src,
                dst=dst,
                size_bytes=sizes.sample(rng),
                start_ns=start_ns,
                protocol=protocol,
            )
        )
    return trace


def permutation_load_trace(
    topology: Topology,
    load: float,
    size_bytes: int = 1 << 30,
    protocol: str = "rps",
    seed: int = 0,
    start_ns: int = 0,
) -> List[FlowArrival]:
    """Figure 18's workload: a fraction *load* of nodes each source one
    long-running flow to a random distinct node, such that every node is
    the source and destination of at most one flow.
    """
    if not (0.0 <= load <= 1.0):
        raise ReproError(f"load must be in [0, 1], got {load}")
    rng = random.Random(seed)
    n = topology.n_nodes
    n_flows = int(round(load * n))
    sources = rng.sample(range(n), n_flows)
    # Destinations: a permutation of a random node subset avoiding
    # self-pairs, so every node receives at most one flow.
    destinations = rng.sample(range(n), n_flows)
    for i in range(n_flows):
        if destinations[i] == sources[i]:
            j = (i + 1) % n_flows
            destinations[i], destinations[j] = destinations[j], destinations[i]
    trace = []
    for i, (src, dst) in enumerate(zip(sources, destinations)):
        if src == dst:
            # Possible only when n_flows == 1; redraw the destination.
            dst = (src + 1) % n
        trace.append(
            FlowArrival(
                flow_id=i,
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                start_ns=start_ns,
                protocol=protocol,
            )
        )
    return trace


def trace_from_matrix(
    topology: Topology,
    matrix,
    size_bytes: int = 1 << 30,
    protocol: str = "rps",
    start_ns: int = 0,
) -> List[FlowArrival]:
    """One long-running flow per traffic-matrix pair, weighted by the
    matrix fraction — bridges the Figure 2 patterns into flow traces."""
    trace = []
    for i, ((src, dst), frac) in enumerate(sorted(matrix.items())):
        if frac <= 0:
            continue
        trace.append(
            FlowArrival(
                flow_id=i,
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                start_ns=start_ns,
                protocol=protocol,
                weight=frac,
            )
        )
    return trace
