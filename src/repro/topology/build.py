"""The one ``kind, dims -> rack topology`` dispatcher.

The CLI, the campaign tasks and fabric synthesis all name a rack fabric by
a kind string plus dimensions; this is the only place that maps the pair
to a class.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import TopologyError
from .base import Topology
from .clos import FoldedClosTopology
from .hypercube import HypercubeTopology
from .torus import MeshTopology, TorusTopology

__all__ = ["build_topology"]


def build_topology(
    kind: str,
    dims: Sequence[int],
    capacity_bps: Optional[float] = None,
    latency_ns: Optional[int] = None,
    radix: int = 8,
) -> Topology:
    """Build the *kind* topology with dimensions *dims*.

    ``torus``/``mesh`` take per-axis sizes, ``hypercube`` the bit count in
    ``dims[0]`` and ``clos`` the host count in ``dims[0]`` plus the switch
    *radix*.  Link parameters left ``None`` take the paper's defaults.
    """
    kwargs = {}
    if capacity_bps is not None:
        kwargs["capacity_bps"] = capacity_bps
    if latency_ns is not None:
        kwargs["latency_ns"] = latency_ns
    if kind == "torus":
        return TorusTopology(dims, **kwargs)
    if kind == "mesh":
        return MeshTopology(dims, **kwargs)
    if kind == "hypercube":
        return HypercubeTopology(dims[0], **kwargs)
    if kind == "clos":
        return FoldedClosTopology(n_hosts=dims[0], radix=radix, **kwargs)
    raise TopologyError(
        f"unknown topology kind {kind!r}; choose from torus, mesh, hypercube, clos"
    )
