"""Routing-protocol interface and registry.

R2C2 routes each flow with a per-flow routing protocol (§3.4).  A protocol
must expose two things:

* a *data-plane* operation, :meth:`RoutingProtocol.sample_path`, which draws
  the path for one packet (the sender encodes it into the packet header and
  intermediate nodes just follow it), and
* a *control-plane* operation, :meth:`RoutingProtocol.link_weights`, giving
  the expected fraction of the flow's rate crossing each directed link.
  This is the paper's key observation (§3.3): "a flow's routing protocol
  dictates its relative rate across its paths", which is what makes flow-level
  max-min computation tractable.

Protocols register a one-byte id (the ``rp`` field of the broadcast packet)
so control messages can name them on the wire.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Type

from ..errors import RoutingError
from ..topology.base import Topology
from ..types import LinkId, NodeId


class RoutingProtocol(ABC):
    """Base class for per-flow routing protocols.

    Subclasses set the class attributes :attr:`name` (human-readable, unique)
    and :attr:`protocol_id` (one byte, unique; encoded in broadcast packets).
    Instances are bound to a topology and are stateless across packets, so a
    single instance can serve every flow using that protocol.
    """

    name: str = "abstract"
    protocol_id: int = -1
    #: True if the protocol only ever uses shortest paths.
    minimal: bool = True

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The topology this protocol instance routes on."""
        return self._topology

    @abstractmethod
    def sample_path(
        self, src: NodeId, dst: NodeId, rng: random.Random, flow_id: int = 0
    ) -> List[NodeId]:
        """Draw the node path for one packet of flow *flow_id*.

        The returned path starts at *src* and ends at *dst*; ``[src]`` when
        they coincide.  Deterministic protocols ignore *rng*.
        """

    @abstractmethod
    def link_weights(
        self, src: NodeId, dst: NodeId, flow_id: int = 0
    ) -> Mapping[LinkId, float]:
        """Expected fraction of the flow's rate on each directed link.

        The values sum to the expected path length; each individual value is
        the coefficient the congestion controller multiplies the flow's total
        rate by to obtain its load on that link.
        """

    def _check_endpoints(self, src: NodeId, dst: NodeId) -> None:
        n = self._topology.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise RoutingError(f"endpoints ({src}, {dst}) outside node range 0..{n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} on {self._topology.name}>"


_REGISTRY: Dict[str, Type[RoutingProtocol]] = {}
_REGISTRY_BY_ID: Dict[int, Type[RoutingProtocol]] = {}


def register_protocol(cls: Type[RoutingProtocol]) -> Type[RoutingProtocol]:
    """Class decorator adding a protocol to the wire-id registry."""
    if not cls.name or cls.name == "abstract":
        raise RoutingError(f"{cls.__name__} must define a unique name")
    if not (0 <= cls.protocol_id <= 255):
        raise RoutingError(f"{cls.__name__}.protocol_id must fit in one byte")
    if cls.name in _REGISTRY:
        raise RoutingError(f"duplicate protocol name {cls.name!r}")
    if cls.protocol_id in _REGISTRY_BY_ID:
        raise RoutingError(f"duplicate protocol id {cls.protocol_id}")
    _REGISTRY[cls.name] = cls
    _REGISTRY_BY_ID[cls.protocol_id] = cls
    return cls


def protocol_class(name_or_id) -> Type[RoutingProtocol]:
    """Look up a protocol class by name or wire id."""
    if isinstance(name_or_id, str):
        try:
            return _REGISTRY[name_or_id]
        except KeyError:
            raise RoutingError(
                f"unknown routing protocol {name_or_id!r}; known: {sorted(_REGISTRY)}"
            ) from None
    try:
        return _REGISTRY_BY_ID[int(name_or_id)]
    except (KeyError, ValueError):
        raise RoutingError(f"unknown routing protocol id {name_or_id!r}") from None


def registered_protocols() -> Dict[str, Type[RoutingProtocol]]:
    """Snapshot of the registry (name -> class)."""
    return dict(_REGISTRY)


def make_protocol(name_or_id, topology: Topology, **kwargs) -> RoutingProtocol:
    """Instantiate a registered protocol on *topology*."""
    return protocol_class(name_or_id)(topology, **kwargs)
