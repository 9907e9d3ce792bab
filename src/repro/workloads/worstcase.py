"""Exact worst-case permutation traffic for oblivious routing.

The Figure 2 table's last row reports each algorithm's throughput on *its
own* worst-case pattern.  For oblivious routing functions (all four studied
protocols qualify — their path distributions do not depend on load) the
worst-case permutation can be found exactly with the method of Towles &
Dally: for each channel, the permutation maximizing that channel's load is a
maximum-weight bipartite matching with weights γ_c(s, d), the expected load
pair (s, d) places on channel c per unit rate.  Taking the maximum over
channels yields the worst-case channel load, whose reciprocal is the
worst-case throughput.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..routing.base import RoutingProtocol
from ..topology.base import Topology
from ..types import NodeId


def channel_pair_loads(protocol: RoutingProtocol) -> np.ndarray:
    """γ[s, d, c]: expected load on channel c per unit of (s, d) traffic.

    Shape ``(n, n, n_links)``; the diagonal (s == d) is zero.  This is dense
    and intended for the modest topologies the worst-case search runs on
    (64-node Figure 2 scale).
    """
    topo = protocol.topology
    n = topo.n_nodes
    gamma = np.zeros((n, n, topo.n_links), dtype=np.float64)
    for src in topo.nodes():
        for dst in topo.nodes():
            if src == dst:
                continue
            for link, weight in protocol.link_weights(src, dst).items():
                gamma[src, dst, link] = weight
    return gamma


def worst_case_permutation(
    protocol: RoutingProtocol,
) -> Tuple[Dict[NodeId, NodeId], float]:
    """The adversarial permutation and its max channel load for *protocol*.

    Returns ``(permutation, worst_load)`` where *worst_load* is the largest
    per-unit-injection channel load any permutation can induce.  The
    saturation throughput on that pattern is ``capacity / worst_load``.
    """
    topo = protocol.topology
    gamma = channel_pair_loads(protocol)
    worst_load = 0.0
    worst_perm: Dict[NodeId, NodeId] = {}
    for link in range(topo.n_links):
        weights = gamma[:, :, link]
        if weights.max() <= 0:
            continue
        # Maximum-weight assignment; linear_sum_assignment minimizes, so
        # negate.  Self-pairs have weight zero and act as "node stays idle".
        rows, cols = linear_sum_assignment(-weights)
        load = float(weights[rows, cols].sum())
        if load > worst_load:
            worst_load = load
            worst_perm = {int(s): int(d) for s, d in zip(rows, cols) if s != d}
    return worst_perm, worst_load


def worst_case_throughput(protocol: RoutingProtocol) -> float:
    """Worst-case saturation throughput as a fraction of link capacity.

    This is the figure the table's last row reports (e.g. 0.5 for VLB on
    any pattern, ≈0.21 for minimal spraying on an 8-ary 2-cube).
    """
    _, worst_load = worst_case_permutation(protocol)
    if worst_load <= 0:
        return float("inf")
    return 1.0 / worst_load
