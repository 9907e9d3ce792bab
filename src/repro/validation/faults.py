"""Deterministic fault injection.

Every injector is seeded, so a failing test names the exact fault sequence
that produced it and re-runs bit-for-bit identically.  The injectors reuse
the stack's own failure machinery rather than inventing a parallel one:

* link failures produce degraded :class:`~repro.topology.base.Topology`
  views via ``without_links`` and are recorded in a
  :class:`~repro.broadcast.reliability.FailureRecovery` so the §3.2
  re-announce path can be exercised on demand;
* packet corruption flips real bits and is expected to be caught by the
  :mod:`repro.wire.checksum` functions;
* drop and reorder deciders produce the loss/reordering patterns the
  transport and broadcast reliability layers must absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..broadcast.reliability import FailureRecovery
from ..errors import SimulationError
from ..topology.base import Topology
from ..types import NodeId

#: Draws :meth:`FaultInjector.fail_links` makes before giving up on a
#: connected view.
_MAX_TRIES = 64


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        at_ns: Simulated time the fault fires.
        kind: ``"link_failure"``, ``"node_failure"``, ``"link_recovery"``,
            ``"node_recovery"`` or any caller-defined tag.
        target: The failed link ``(src, dst)``, node id, or other payload.
    """

    at_ns: int
    kind: str
    target: object


class FaultSchedule:
    """A time-ordered list of faults, installable on an event loop."""

    def __init__(self, events: Optional[Iterable[FaultEvent]] = None) -> None:
        self._events: List[FaultEvent] = sorted(
            events or [], key=lambda e: (e.at_ns, e.kind)
        )

    def add(self, event: FaultEvent) -> None:
        """Insert one fault, keeping the schedule time-ordered."""
        self._events.append(event)
        self._events.sort(key=lambda e: (e.at_ns, e.kind))

    def install(self, loop, handler: Callable[[FaultEvent], None]) -> int:
        """Schedule every fault on *loop*; *handler* receives each event.

        Returns the number of events installed.
        """
        for event in self._events:
            loop.schedule_at(event.at_ns, handler, event)
        return len(self._events)


class FaultInjector:
    """Seeded source of every fault class the validation suite injects."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed ^ 0xFA017)
        #: failures recorded through this injector, in the same state
        #: machine the production stack uses.
        self.recovery = FailureRecovery()

    # ------------------------------------------------------------------
    # Link failures (topology failure views)
    # ------------------------------------------------------------------
    def sample_links(self, topology: Topology, k: int) -> List[Tuple[NodeId, NodeId]]:
        """Pick *k* distinct directed links, uniformly without replacement."""
        if k > topology.n_links:
            raise SimulationError(
                f"cannot fail {k} of {topology.n_links} links"
            )
        chosen = self._rng.sample(list(topology.links), k)
        return [(link.src, link.dst) for link in chosen]

    def sample_duplex_links(
        self, topology: Topology, k: int
    ) -> List[Tuple[NodeId, NodeId]]:
        """Pick *k* distinct undirected links as canonical (low, high) pairs."""
        duplex = sorted({(min(l.src, l.dst), max(l.src, l.dst)) for l in topology.links})
        if k > len(duplex):
            raise SimulationError(
                f"cannot fail {k} of {len(duplex)} duplex links"
            )
        return self._rng.sample(duplex, k)

    def fail_links(
        self,
        topology: Topology,
        k: int,
        require_connected: bool = True,
        symmetric: bool = False,
    ) -> Tuple[Topology, List[Tuple[NodeId, NodeId]]]:
        """Fail *k* directed links; returns (degraded view, failed links).

        With ``require_connected`` the sample is redrawn until the degraded
        fabric stays strongly connected (the regime §3.2's re-announce is
        designed for — partitions are a different failure class).

        ``symmetric`` fails *k* undirected links — both directions of each,
        modeling a dead cable rather than a dead transceiver.  Protocols
        that send replies along the reversed data path (TCP ACKs, the
        reliable transport's ACKs) assume symmetric connectivity, so
        storm-style experiments use this mode; the returned list then
        contains both directions of every failed link.
        """
        for _ in range(_MAX_TRIES):
            if symmetric:
                duplex = self.sample_duplex_links(topology, k)
                failed = [(a, b) for a, b in duplex] + [(b, a) for a, b in duplex]
            else:
                failed = self.sample_links(topology, k)
            degraded = topology.without_links(failed)
            if not require_connected or degraded.is_connected():
                for src, dst in failed:
                    self.recovery.on_link_failure(src, dst)
                return degraded, failed
        raise SimulationError(
            f"no connected view found failing {k} links in {_MAX_TRIES} tries"
        )

    # ------------------------------------------------------------------
    # Packet corruption (wire.checksum's job to catch)
    # ------------------------------------------------------------------
    def corrupt(self, data: bytes, n_bits: int = 1) -> bytes:
        """Flip *n_bits* distinct bits of *data*; always returns != data."""
        if not data:
            raise SimulationError("cannot corrupt an empty buffer")
        n_bits = max(1, min(n_bits, len(data) * 8))
        positions = self._rng.sample(range(len(data) * 8), n_bits)
        corrupted = bytearray(data)
        for position in positions:
            corrupted[position // 8] ^= 1 << (position % 8)
        return bytes(corrupted)

    def truncate(self, data: bytes) -> bytes:
        """Drop a random non-zero number of trailing bytes."""
        if len(data) < 2:
            raise SimulationError("buffer too short to truncate")
        return data[: self._rng.randrange(1, len(data))]

    # ------------------------------------------------------------------
    # Drop / reorder deciders
    # ------------------------------------------------------------------
    def drop_decider(self, loss_rate: float) -> Callable[[], bool]:
        """A deterministic callable answering "drop this one?" at *loss_rate*."""
        if not (0.0 <= loss_rate <= 1.0):
            raise SimulationError(f"loss_rate must be in [0, 1], got {loss_rate}")
        rng = random.Random(self._rng.randrange(1 << 62))
        return lambda: rng.random() < loss_rate

    def reordered(self, items: Sequence, window: int = 4) -> List:
        """A bounded reordering of *items*: nothing moves more than *window*
        positions, mimicking multi-path skew rather than arbitrary shuffles."""
        if window < 1:
            raise SimulationError(f"reorder window must be >= 1, got {window}")
        keyed = [
            (index + self._rng.uniform(0, window), index)
            for index in range(len(items))
        ]
        keyed.sort()
        return [items[index] for _, index in keyed]
