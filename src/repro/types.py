"""Shared primitive types and unit helpers.

The whole library agrees on a few conventions:

* Nodes are dense integer ids ``0 .. n_nodes - 1``.
* Links are *directed*; an undirected cable between two nodes appears as two
  links, one per direction.  Links are identified by a dense integer id that
  indexes :attr:`repro.topology.base.Topology.links`.
* Bandwidth is expressed in bits per second, time in nanoseconds and sizes in
  bytes.  The helpers below exist so call sites can say ``gbps(10)`` instead
  of ``10 * 10**9``.
"""

from __future__ import annotations

from dataclasses import dataclass

NodeId = int
LinkId = int
FlowId = int

#: Nanoseconds per second; simulator time is integer nanoseconds.
NS_PER_SEC = 1_000_000_000

#: Bits per byte, spelled out where the factor of eight would otherwise be a
#: magic number.
BITS_PER_BYTE = 8


def gbps(value: float) -> float:
    """Return *value* gigabits per second expressed in bits per second."""
    return value * 1e9


def usec(value: float) -> int:
    """Return *value* microseconds expressed in integer nanoseconds."""
    return int(value * 1_000)


def msec(value: float) -> int:
    """Return *value* milliseconds expressed in integer nanoseconds."""
    return int(value * 1_000_000)


def transmission_time_ns(size_bytes: int, capacity_bps: float) -> int:
    """Time to serialize *size_bytes* onto a link of *capacity_bps*.

    Rounds up to a whole nanosecond so that back-to-back packets never
    overlap on the wire.
    """
    bits = size_bytes * BITS_PER_BYTE
    return -(-bits * NS_PER_SEC // int(capacity_bps))


@dataclass(frozen=True)
class Link:
    """A directed network link.

    Attributes:
        link_id: Dense index of this link within its topology.
        src: Transmitting node.
        dst: Receiving node.
        capacity_bps: Line rate in bits per second.
        latency_ns: Propagation latency in nanoseconds.
    """

    link_id: LinkId
    src: NodeId
    dst: NodeId
    capacity_bps: float
    latency_ns: int
