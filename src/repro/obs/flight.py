"""The crash flight recorder: last-moments context for every subsystem.

A :class:`FlightRecorder` keeps one bounded ring buffer per subsystem
("engine", "network", "stack", "controller", "auditor", ...) of recent
structured events.  When a simulation crashes, trips an oracle, or fails
an audit, :meth:`dump` serializes the rings as one JSON document — so a
fuzzer-found reproducer ships with the events that led up to the failure,
not just the failure itself.

Determinism: every recorded event carries **simulated** time only.  Two
runs of the same seeds produce byte-identical dumps, which keeps corpus
entries content-stable and diffs reviewable.

Overhead discipline: recording is opt-in (``SimConfig(flight=True)``) and
the simulator reaches the recorder only through its probe
(:mod:`repro.sim.probe`), so the disabled path adds nothing beyond the
per-site ``is not None`` guards already covered by the telemetry overhead
gate.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

__all__ = ["FlightRecorder", "FLIGHT_SCHEMA"]

#: Dump document schema version (bump on layout changes).
FLIGHT_SCHEMA = 1

#: Default per-subsystem ring capacity.
DEFAULT_LIMIT = 256


class FlightRecorder:
    """Bounded per-subsystem rings of recent structured events."""

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("flight ring limit must be >= 1")
        self.limit = limit
        self._rings: Dict[str, deque] = {}
        self._dropped: Dict[str, int] = {}

    def record(self, subsystem: str, kind: str, t_ns: int, **fields) -> None:
        """Append one event to *subsystem*'s ring (evicting the oldest)."""
        ring = self._rings.get(subsystem)
        if ring is None:
            ring = self._rings[subsystem] = deque(maxlen=self.limit)
            self._dropped[subsystem] = 0
        if len(ring) == self.limit:
            self._dropped[subsystem] += 1
        event = {"t_ns": t_ns, "kind": kind}
        if fields:
            event.update(fields)
        ring.append(event)

    def dump(self, reason: Optional[str] = None) -> dict:
        """Serialize every ring as one JSON-able document."""
        doc: dict = {
            "schema": FLIGHT_SCHEMA,
            "limit": self.limit,
            "subsystems": {
                name: {
                    "dropped": self._dropped[name],
                    "events": list(self._rings[name]),
                }
                for name in sorted(self._rings)
            },
        }
        if reason is not None:
            doc["reason"] = reason
        return doc

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())
