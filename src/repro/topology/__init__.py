"""Direct-connect rack topologies and path machinery (paper §2.1).

Public surface:

* :class:`Topology` / :class:`GraphTopology` — generic immutable topologies.
* :class:`TorusTopology`, :class:`MeshTopology`, :class:`HypercubeTopology`,
  :class:`FoldedClosTopology` — the fabrics discussed in the paper.
* :class:`ShortestPathDag`, :func:`count_shortest_paths`,
  :func:`enumerate_shortest_paths` — minimal-path structure.
* :func:`bisection_channel_count`, :func:`bisection_bandwidth_bps`.
* :class:`Partition` / :func:`partition_topology` — shard cuts for the
  parallel simulation engine (:mod:`repro.distsim`).
* :func:`build_topology` — the one ``kind, dims`` -> rack topology
  dispatcher.
* :class:`ComposedFabric` — racks + optional switches + gateway cables, the
  one multi-rack fabric class (:mod:`repro.topology.composed`).
* :class:`FabricSpec` / :func:`synthesize` — automated inter-rack fabric
  synthesis under port/cost budgets (:mod:`repro.topology.synth`).
"""

from .base import DEFAULT_CAPACITY_BPS, DEFAULT_LATENCY_NS, GraphTopology, Topology
from .bisection import bisection_bandwidth_bps, bisection_channel_count
from .build import build_topology
from .clos import FoldedClosTopology
from .composed import ComposedFabric
from .hypercube import HypercubeTopology
from .partition import Partition, partition_topology
from .synth import (
    SYNTH_DESIGNS,
    FabricSpec,
    SynthesizedFabric,
    synthesize,
)
from .paths import (
    ShortestPathDag,
    count_shortest_paths,
    enumerate_shortest_paths,
    is_minimal_path,
    is_valid_path,
    path_links,
)
from .torus import MeshTopology, TorusTopology

__all__ = [
    "ComposedFabric",
    "DEFAULT_CAPACITY_BPS",
    "DEFAULT_LATENCY_NS",
    "FabricSpec",
    "FoldedClosTopology",
    "GraphTopology",
    "HypercubeTopology",
    "MeshTopology",
    "Partition",
    "SYNTH_DESIGNS",
    "ShortestPathDag",
    "SynthesizedFabric",
    "Topology",
    "TorusTopology",
    "bisection_bandwidth_bps",
    "bisection_channel_count",
    "build_topology",
    "count_shortest_paths",
    "enumerate_shortest_paths",
    "is_minimal_path",
    "is_valid_path",
    "partition_topology",
    "path_links",
    "synthesize",
]
