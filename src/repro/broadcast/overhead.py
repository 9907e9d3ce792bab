"""Analytic broadcast- and control-traffic overhead models.

These closed forms back three of the paper's quantitative claims:

* §3.2: one broadcast in a 512-node rack puts ``511 * 16 ≈ 8 KB`` on the
  wire; announcing a 10 KB flow's start and finish costs 26.66 % relative
  overhead; all-pairs flows generate 681 KB of broadcast traffic per link.
* Figure 9: the fraction of network capacity consumed by broadcasts grows
  linearly with the fraction of bytes carried by small flows and shrinks
  with topology diameter.
* Figure 19: decentralized control traffic is constant in the number of
  concurrent flows, while a centralized (Fastpass-like) controller's grows
  linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BroadcastError
from ..topology.base import Topology
from ..wire.packets import BROADCAST_PACKET_SIZE as BROADCAST_PACKET_BYTES


def broadcast_bytes_total(n_nodes: int, packet_bytes: int = BROADCAST_PACKET_BYTES) -> int:
    """Total wire bytes of one broadcast: one packet per spanning-tree edge."""
    if n_nodes < 1:
        raise BroadcastError(f"n_nodes must be >= 1, got {n_nodes}")
    return (n_nodes - 1) * packet_bytes


def flow_wire_bytes(flow_bytes: int, avg_hops: float) -> float:
    """Bytes a flow puts on the wire end to end (payload times hop count)."""
    if flow_bytes < 0 or avg_hops <= 0:
        raise BroadcastError("flow_bytes must be >= 0 and avg_hops > 0")
    return flow_bytes * avg_hops


def flow_event_overhead(
    flow_bytes: int,
    n_nodes: int,
    avg_hops: float,
    events_per_flow: int = 2,
    packet_bytes: int = BROADCAST_PACKET_BYTES,
) -> float:
    """Relative overhead of broadcasting a flow's start/finish events.

    For a 10 KB flow in a 512-node 3D torus (average path 6 hops) this is
    the paper's 26.66 % (13.33 % per event).
    """
    data = flow_wire_bytes(flow_bytes, avg_hops)
    if data == 0:
        return float("inf")
    return events_per_flow * broadcast_bytes_total(n_nodes, packet_bytes) / data


def broadcast_capacity_fraction(
    small_byte_fraction: float,
    n_nodes: int,
    avg_hops: float,
    small_flow_bytes: int = 10 * 1000,
    large_flow_bytes: int = 35 * 1000 * 1000,
    events_per_flow: int = 2,
    packet_bytes: int = BROADCAST_PACKET_BYTES,
) -> float:
    """Fraction of network capacity consumed by flow-event broadcasts.

    Models the Figure 9 workload: a share *small_byte_fraction* of all bytes
    travels in small flows, the rest in large ones.  The returned value is
    broadcast wire-bytes divided by total wire-bytes (broadcast + data).
    """
    if not (0.0 <= small_byte_fraction <= 1.0):
        raise BroadcastError(
            f"small_byte_fraction must be in [0, 1], got {small_byte_fraction}"
        )
    if small_flow_bytes <= 0 or large_flow_bytes <= 0:
        raise BroadcastError("flow sizes must be positive")
    # Work per unit byte of application data.
    flows_per_byte = (
        small_byte_fraction / small_flow_bytes
        + (1.0 - small_byte_fraction) / large_flow_bytes
    )
    broadcast = events_per_flow * broadcast_bytes_total(n_nodes, packet_bytes) * flows_per_byte
    data = avg_hops
    return broadcast / (broadcast + data)


def all_pairs_broadcast_bytes_per_link(
    topology: Topology,
    events_per_flow: int = 1,
    packet_bytes: int = BROADCAST_PACKET_BYTES,
) -> float:
    """Average broadcast bytes per link for flows between all node pairs.

    The paper's §3.2 worst case: with 512 nodes, ≈262 K flows produce
    681 KB of broadcast traffic per link (assuming broadcast bytes spread
    evenly across links, which multi-tree load balancing approximates).
    """
    n = topology.n_nodes
    n_flows = n * (n - 1)
    total = n_flows * events_per_flow * broadcast_bytes_total(n, packet_bytes)
    return total / topology.n_links


@dataclass
class ControlTrafficModel:
    """Byte-accounting model for Figure 19 (centralized vs decentralized).

    Attributes:
        n_nodes: Rack size.
        avg_hops: Mean unicast path length (unicast control messages cross
            this many links on average).
        rate_entry_bytes: Bytes per {flow id, rate} pair in a controller's
            rate-update message (4 B id + 4 B rate).
        header_bytes: Fixed header of any control message.
    """

    n_nodes: int
    avg_hops: float
    rate_entry_bytes: int = 8
    header_bytes: int = 8

    def decentralized_bytes_per_event(self) -> float:
        """One flow event, R2C2 style: a single rack-wide broadcast.

        Independent of how many flows are active — the core of the paper's
        argument for decentralization.
        """
        return float(broadcast_bytes_total(self.n_nodes))

    def centralized_bytes_per_event(self, flows_per_server: float) -> float:
        """One flow event under a Fastpass-like centralized controller.

        The source unicasts the event to the controller; the controller then
        unicasts to every flow-sourcing node its new rates (one entry per
        flow that node sources).  Both legs pay the average path length.
        """
        if flows_per_server < 0:
            raise BroadcastError("flows_per_server must be >= 0")
        request = BROADCAST_PACKET_BYTES * self.avg_hops
        per_node_msg = self.header_bytes + self.rate_entry_bytes * flows_per_server
        responses = (self.n_nodes - 1) * per_node_msg * self.avg_hops
        return request + responses

    def ratio(self, flows_per_server: float) -> float:
        """Centralized bytes divided by decentralized bytes per event."""
        return self.centralized_bytes_per_event(flows_per_server) / (
            self.decentralized_bytes_per_event()
        )
