"""Per-flow routing protocols (paper §2.2.1, §3.4, §4.2).

The paper's implementation ships random packet spraying, destination-tag
routing and VLB; we additionally provide WLB (studied in Figure 2) and the
single-path ECMP used by the TCP baseline.

Protocols are registered with one-byte wire ids so they can be named in
broadcast packets::

    rps = 0, dor = 1, vlb = 2, wlb = 3, ecmp = 4,
    hier = 6, hier_wlb = 7, hier_vlb = 8

The three hierarchical protocols (:mod:`repro.routing.hierarchical`) route
across the racks of a switchless composed fabric (paper §6).
"""

from .base import (
    RoutingProtocol,
    make_protocol,
    protocol_class,
    register_protocol,
    registered_protocols,
)
from .dor import DestinationTagRouting
from .ecmp import EcmpSinglePath
from .hierarchical import HierarchicalRouting, HierarchicalVLB, HierarchicalWLB
from .spraying import RandomPacketSpraying
from .valiant import ValiantLoadBalancing, translation_map
from .weights import (
    deterministic_minimal_path,
    merge_weights,
    path_weights,
    sample_spray_path,
    spray_injection_weights,
    spray_link_weights,
)
from .wlb import WeightedLoadBalancing

__all__ = [
    "DestinationTagRouting",
    "EcmpSinglePath",
    "HierarchicalRouting",
    "HierarchicalVLB",
    "HierarchicalWLB",
    "RandomPacketSpraying",
    "RoutingProtocol",
    "ValiantLoadBalancing",
    "WeightedLoadBalancing",
    "deterministic_minimal_path",
    "make_protocol",
    "merge_weights",
    "path_weights",
    "protocol_class",
    "register_protocol",
    "registered_protocols",
    "sample_spray_path",
    "spray_injection_weights",
    "spray_link_weights",
    "translation_map",
]
