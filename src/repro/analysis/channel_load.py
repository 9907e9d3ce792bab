"""Channel-load throughput analysis (reproduces the Figure 2 table).

For oblivious routing, the saturation throughput on a traffic pattern is
determined by the most loaded channel: if every node injects at rate θ (in
units of link capacity) and γ_max is the largest per-unit-injection channel
load the pattern induces, the network saturates at ``θ = 1 / γ_max``.
Figure 2 reports exactly this number for four routing algorithms and six
patterns on an 8-ary 2-cube.

On *composed* multi-rack graphs (see :mod:`repro.topology.synth`) link
capacities are heterogeneous — gateway cables are typically thinner than
fabric links — so the single-number analysis generalizes to a per-tier one:
a link in tier *l* with capacity ``C_l`` saturates at
``θ_l = C_l / (C_ref · γ_l)`` where ``C_ref`` is the intra-rack (injection)
capacity, and the fabric saturates at the minimum over links.
:func:`tiered_channel_loads` reports this breakdown per tier (intra-rack vs
gateway), which is how a campaign shows *where* a synthesized fabric
bottlenecks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..routing.base import RoutingProtocol, make_protocol
from ..workloads.patterns import (
    COMPOSED_PATTERNS,
    STANDARD_PATTERNS,
    TrafficMatrix,
    TrafficPattern,
)
from ..workloads.worstcase import worst_case_throughput

#: Tier label for links inside a rack (and all links of plain topologies).
TIER_INTRA = "intra"
#: Tier label for gateway cables / uplinks between racks.
TIER_GATEWAY = "gateway"


def channel_loads(
    protocol: RoutingProtocol, matrix: TrafficMatrix
) -> np.ndarray:
    """Per-channel load for unit per-node injection under *matrix*.

    ``matrix[(s, d)]`` is the fraction of s's injection aimed at d; the
    returned vector has one entry per directed link, in units of
    (injection-rate x link-traversals).
    """
    topo = protocol.topology
    load = np.zeros(topo.n_links, dtype=np.float64)
    for (src, dst), frac in matrix.items():
        if frac <= 0 or src == dst:
            continue
        for link, weight in protocol.link_weights(src, dst).items():
            load[link] += frac * weight
    return load


def saturation_throughput(
    protocol: RoutingProtocol, matrix: TrafficMatrix
) -> float:
    """Saturation injection rate as a fraction of link capacity.

    1.0 means each node can inject one full link's worth of traffic before
    any channel saturates (the normalization Figure 2 uses, where uniform
    traffic under minimal routing on a torus achieves exactly 1.0).
    """
    loads = channel_loads(protocol, matrix)
    max_load = float(loads.max()) if loads.size else 0.0
    if max_load <= 0:
        return float("inf")
    return 1.0 / max_load


def throughput_table(
    protocols: Sequence[RoutingProtocol],
    patterns: Sequence[TrafficPattern],
    include_worst_case: bool = True,
) -> Dict[str, Dict[str, float]]:
    """The full Figure 2 table: ``table[pattern][protocol] = throughput``.

    All protocols must share one topology.  When *include_worst_case* is
    set, a ``"worst-case"`` row is added using each protocol's own
    adversarial permutation (so the row's entries correspond to different
    patterns, exactly as in the paper).
    """
    topologies = {id(p.topology) for p in protocols}
    if len(topologies) != 1:
        raise ValueError("all protocols must be bound to the same topology")
    topology = protocols[0].topology

    table: Dict[str, Dict[str, float]] = {}
    for pattern in patterns:
        matrix = pattern.matrix(topology)
        table[pattern.name] = {
            protocol.name: saturation_throughput(protocol, matrix)
            for protocol in protocols
        }
    if include_worst_case:
        table["worst-case"] = {
            protocol.name: worst_case_throughput(protocol) for protocol in protocols
        }
    return table


def link_tiers(topology) -> List[str]:
    """Tier label per directed link, indexed by link id.

    The gateway cables of a :class:`~repro.topology.composed.ComposedFabric`
    are ``TIER_GATEWAY``; every other link — and every link of a plain
    single-rack topology — is ``TIER_INTRA``.
    """
    return [
        TIER_GATEWAY if topology.is_gateway_link(link.link_id) else TIER_INTRA
        for link in topology.links
    ]


def tiered_channel_loads(
    protocol: RoutingProtocol,
    matrix: TrafficMatrix,
    loads: Optional[np.ndarray] = None,
) -> Dict[str, object]:
    """Per-tier (intra-rack vs gateway) channel-load breakdown.

    Returns a dict with a ``"tiers"`` mapping — per tier: link count, link
    capacity, max/mean per-unit-injection load and the capacity-aware
    saturation throughput of that tier alone — plus the fabric-wide
    ``"saturation"`` (the min over tiers) and the ``"bottleneck"`` tier
    name.  Pass a precomputed *loads* vector to avoid recomputing
    :func:`channel_loads`.  On homogeneous single-rack topologies the
    single ``intra`` tier reproduces :func:`saturation_throughput` exactly.
    """
    topo = protocol.topology
    if loads is None:
        loads = channel_loads(protocol, matrix)
    tiers = link_tiers(topo)
    ref_capacity = topo.capacity_bps
    by_tier: Dict[str, Dict[str, float]] = {}
    for link in topo.links:
        tier = by_tier.setdefault(
            tiers[link.link_id],
            {"links": 0, "capacity_bps": float(link.capacity_bps),
             "max_load": 0.0, "load_sum": 0.0, "saturation": float("inf")},
        )
        load = float(loads[link.link_id])
        tier["links"] += 1
        tier["load_sum"] += load
        if load > tier["max_load"]:
            tier["max_load"] = load
        if load > 0:
            theta = link.capacity_bps / (ref_capacity * load)
            if theta < tier["saturation"]:
                tier["saturation"] = theta
    overall = float("inf")
    bottleneck = None
    for name, tier in by_tier.items():
        tier["mean_load"] = tier.pop("load_sum") / max(tier["links"], 1)
        if tier["saturation"] < overall:
            overall = tier["saturation"]
            bottleneck = name
    return {"tiers": by_tier, "saturation": overall, "bottleneck": bottleneck}


def tier_load_report(
    topology, protocol_name: str, pattern_name: str
) -> Dict[str, object]:
    """:func:`tiered_channel_loads` for a protocol and traffic pattern given
    by name, JSON-portable: an unloaded tier's infinite saturation becomes
    ``None``.  This is the ``tier_load`` section of fabric manifests and
    ``synth`` task results."""
    pattern = COMPOSED_PATTERNS.get(pattern_name) or STANDARD_PATTERNS.get(pattern_name)
    if pattern is None:
        raise ReproError(f"unknown traffic pattern {pattern_name!r}")
    protocol = make_protocol(protocol_name, topology)
    report = tiered_channel_loads(protocol, pattern.matrix(topology))
    for entry in (report, *report["tiers"].values()):
        if entry["saturation"] == float("inf"):
            entry["saturation"] = None
    return report


def max_channel_utilization(
    protocol: RoutingProtocol,
    matrix: TrafficMatrix,
    injection_bps: float,
) -> float:
    """Utilization of the busiest channel at a given per-node injection."""
    loads = channel_loads(protocol, matrix)
    capacity = protocol.topology.capacity_bps
    return float(loads.max()) * injection_bps / capacity if loads.size else 0.0
