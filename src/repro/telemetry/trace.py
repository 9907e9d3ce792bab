"""Chrome trace-event / Perfetto-compatible event tracing.

The :class:`TraceRecorder` accumulates trace events in the JSON object
format described by the Chrome Trace Event spec (the format Perfetto's
legacy importer and ``chrome://tracing`` both load):

* ``ph: "X"`` *complete* events — spans with a start and duration
  (event-loop batches, sampled packet lifecycles);
* ``ph: "i"`` *instant* events — points in time (controller epochs,
  broadcast announce/re-announce rounds, invariant violations);
* ``ph: "C"`` *counter* events — stacked time series rendered as area
  charts (aggregate link utilization, queued bytes, drops).

All timestamps are **simulated** nanoseconds converted to the format's
microsecond unit; no wall-clock value ever enters a trace, so two runs of
the same seeded scenario emit byte-identical files — determinism the test
suite asserts, and the property that makes traces diffable across
revisions.

Tracks: each instrumented component claims a ``tid`` below and labels it
with a thread-name metadata event, so Perfetto shows one named row per
subsystem instead of an anonymous pile.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Track (tid) assignments; one row per subsystem in the viewer.
TRACK_SIM = 0        #: event-loop batches
TRACK_CONTROLLER = 1  #: recompute epochs
TRACK_BROADCAST = 2   #: announce / re-announce rounds
TRACK_LINKS = 3       #: link-probe counters
TRACK_PACKETS = 4     #: sampled packet lifecycles
TRACK_VALIDATION = 5  #: invariant violations

_TRACK_NAMES = {
    TRACK_SIM: "event loop",
    TRACK_CONTROLLER: "rate controller",
    TRACK_BROADCAST: "broadcast",
    TRACK_LINKS: "links",
    TRACK_PACKETS: "packets (sampled)",
    TRACK_VALIDATION: "validation",
}

#: Tracks whose events are pure functions of the simulation (content and
#: simulated timestamps identical between serial and sharded executions).
#: TRACK_SIM spans describe event-loop *batches* (progress chunks serially,
#: conservative windows sharded) and TRACK_LINKS counters are per-probe-set
#: aggregates (one set per shard) — both are executor artifacts, so shard
#: telemetry never records them and merged documents never contain them.
MERGEABLE_TRACKS = (
    TRACK_CONTROLLER,
    TRACK_BROADCAST,
    TRACK_PACKETS,
    TRACK_VALIDATION,
)


def _us(ts_ns: int) -> float:
    """Nanoseconds -> the trace format's microsecond unit."""
    return ts_ns / 1e3


class TraceRecorder:
    """Accumulates trace events; export with :meth:`save` / :meth:`to_json`.

    Args:
        max_events: Safety bound — recording silently stops once this many
            events have been captured (the ``truncated`` flag in the
            exported ``otherData`` says so).  Traces are diagnostic
            artifacts; a bounded, truncated trace beats an OOM.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self._events: List[dict] = []
        #: per-event ``(ts_ns, seq)`` order metadata, parallel to
        #: ``_events`` — the substrate for the deterministic sharded merge
        #: (:func:`merge_trace_documents`).  Metadata events carry -1 so
        #: they sort before all simulated time.
        self._order: List[tuple] = []
        self._seq = 0
        self._max_events = max_events
        self.truncated = False
        self._pid = 0
        for tid, name in sorted(_TRACK_NAMES.items()):
            self._meta_thread_name(tid, name)

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _append(self, event: dict, ts_ns: int = -1) -> None:
        if len(self._events) >= self._max_events:
            self.truncated = True
            return
        self._events.append(event)
        self._order.append((ts_ns, self._seq))
        self._seq += 1

    def _meta_thread_name(self, tid: int, name: str) -> None:
        self._append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self._pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    def complete(
        self,
        name: str,
        cat: str,
        ts_ns: int,
        dur_ns: int,
        tid: int = TRACK_SIM,
        args: Optional[dict] = None,
    ) -> None:
        """A span: ``ph: "X"`` with simulated start time and duration."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": _us(ts_ns),
            "dur": _us(dur_ns),
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event, ts_ns)

    def instant(
        self,
        name: str,
        cat: str,
        ts_ns: int,
        tid: int = TRACK_SIM,
        args: Optional[dict] = None,
    ) -> None:
        """A point event: ``ph: "i"``, thread-scoped."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": _us(ts_ns),
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event, ts_ns)

    def counter(
        self,
        name: str,
        ts_ns: int,
        values: Dict[str, float],
        tid: int = TRACK_LINKS,
    ) -> None:
        """A counter sample: ``ph: "C"`` (rendered as a stacked area)."""
        self._append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": _us(ts_ns),
                "pid": self._pid,
                "tid": tid,
                "args": dict(values),
            },
            ts_ns,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> List[dict]:
        """The recorded events (mutating the list is on you)."""
        return self._events

    def export_events(self) -> List[tuple]:
        """``(ts_ns, seq, event)`` triples with recording-order metadata.

        The hand-off format for sharded runs: each shard exports its
        triples and the coordinator merges them deterministically with
        :func:`merge_trace_documents`.
        """
        return [
            (ts_ns, seq, event)
            for (ts_ns, seq), event in zip(self._order, self._events)
        ]

    def to_document(self) -> dict:
        """The full trace document (JSON object format)."""
        return {
            "traceEvents": self._events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.telemetry",
                "clock": "simulated-ns",
                "truncated": self.truncated,
            },
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering (sorted keys, no wall clock)."""
        return json.dumps(self.to_document(), sort_keys=True)

    def save(self, path) -> None:
        """Write the trace JSON to *path* (load it in ui.perfetto.dev)."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def merge_trace_documents(
    shard_events: List[List[tuple]], truncated: bool = False
) -> dict:
    """Merge per-shard :meth:`TraceRecorder.export_events` lists.

    Events sort by ``(ts_ns, seq, shard)`` — simulated time first, then
    each recorder's own appending order, then shard index.  Every quantity
    is a pure function of the simulation, so the merge is deterministic
    across executors and repeat runs.  Thread-name metadata events (every
    shard emits the full set at construction) are deduplicated by track.

    Note the merged *serialization order* is not the serial recorder's
    append order (a serial recorder appends sampled packet spans at
    delivery time but stamps them with their injection ``ts``); compare
    documents with :func:`canonical_trace_events`, which content-sorts.
    """
    tagged = []
    for shard, events in enumerate(shard_events):
        for ts_ns, seq, event in events:
            tagged.append((ts_ns, seq, shard, event))
    tagged.sort(key=lambda t: (t[0], t[1], t[2]))
    merged = []
    seen_meta = set()
    for _ts_ns, _seq, _shard, event in tagged:
        if event.get("ph") == "M":
            key = (event.get("tid"), json.dumps(event.get("args"), sort_keys=True))
            if key in seen_meta:
                continue
            seen_meta.add(key)
        merged.append(event)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.telemetry",
            "clock": "simulated-ns",
            "truncated": truncated,
        },
    }


def canonical_trace_events(doc: dict, tracks=None) -> List[str]:
    """Content-sorted projection of a trace document, for comparisons.

    Returns the JSON rendering of every event (restricted to *tracks* when
    given, e.g. :data:`MERGEABLE_TRACKS`), sorted — an order-insensitive
    equality surface.  Two documents describe the same trace iff their
    projections are byte-identical.
    """
    events = []
    for event in doc["traceEvents"]:
        if tracks is not None and event.get("tid") not in tracks:
            continue
        events.append(json.dumps(event, sort_keys=True))
    events.sort()
    return events
