"""Host-stack interface: what every transport implementation provides."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ...types import NodeId
from ..engine import EventLoop
from ..flows import SimFlow
from ..network import RackNetwork
from ..packets import SimPacket


class HostStack(ABC):
    """Per-node transport endpoint.

    The runner installs one stack per node; the network calls
    :meth:`deliver` for every packet that terminates at the node, and the
    runner calls :meth:`start_flow` on the source node's stack when a flow
    arrives.
    """

    def __init__(
        self, node: NodeId, loop: EventLoop, network: RackNetwork, probe=None
    ) -> None:
        self.node = node
        self.loop = loop
        self.network = network
        #: the run's observation surface (repro.sim.probe); None on every
        #: default run, so each site costs one attribute test.
        self._probe = probe

    @abstractmethod
    def start_flow(self, flow: SimFlow) -> None:
        """Begin transmitting *flow* (this node is its source)."""

    @abstractmethod
    def deliver(self, packet: SimPacket) -> None:
        """Handle a packet addressed to (or broadcast reaching) this node."""

    def _received(self, flow: SimFlow, packet: SimPacket, complete: bool) -> None:
        """The receive epilogue every stack shares: stamp the completion
        the first time *complete* holds, then report the delivery."""
        probe = self._probe
        if complete and flow.completed_ns is None:
            flow.completed_ns = self.loop.now
            if probe is not None:
                probe.flow_complete(flow, self.node)
        if probe is not None:
            probe.delivered(flow, packet)

    def on_epoch(self) -> None:
        """Hook invoked after each control-plane recomputation (optional)."""
