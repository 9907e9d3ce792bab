"""The daemon's allocation state machine (transport-agnostic).

:class:`ServiceState` is everything the ``repro serve`` daemon knows,
minus the sockets: the live :class:`~repro.congestion.IncrementalWaterfill`
flow table, operation counters, the query-latency reservoir, and the
checkpoint/journal plumbing.  Keeping it transport-free lets the churn
oracle, the fuzzer's churn executor and the in-process daemon tests drive
the exact code path the asyncio daemon serves, without event loops.

Durability: a ``snapshot_path`` names one append-only file.  Line 1 is a
checkpoint — the full flow table and the *exact* float rates/loads as
compact single-line JSON; every later line is one applied mutation
(``{"seq", "op": "announce", "spec"}`` / ``{"seq", "op": "finish",
"flow_id"}``), appended and fsynced before the mutation is acked.
:meth:`ServiceState.restore` loads line 1 verbatim and re-applies the tail
through the ordinary ``announce`` / ``finish`` path.  That is bit-exact —
the allocator orders all work by sorted flow id and reads only what the
checkpoint restores exactly, and specs use the checkpoint's own lossless
codec (``spec_to_dict``; the wire frames would quantize them) — so a daemon
SIGKILLed at any point and restarted answers allocation queries
byte-for-byte identically to one that never died.  A checkpoint
(:func:`~repro.core.ioutil.atomic_write_bytes`: tmp → fsync → rename)
replaces checkpoint *and* tail in one rename; it is written when the file is
first created, whenever the tail would outgrow the live flow table (replay
never costs more than re-announcing the table) and on a graceful stop.  A
kill between a checkpoint's temporary and its rename leaves the temporary
behind; opening the ``snapshot_path`` deletes it (``stale_tmp_swept``).  No
descriptor stays open between mutations: dropping a state without any
``close()`` loses and leaks nothing.  DESIGN §6g has the crash argument.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from ..congestion import FlowSpec, IncrementalWaterfill, spec_from_dict, spec_to_dict
from ..core.ioutil import atomic_write_bytes, sweep_stale_temps
from ..errors import ServiceError
from ..sim.metrics import LatencyReservoir
from ..topology.base import Topology
from ..wire.control import AllocReply

#: Snapshot file layout version (2 = checkpoint line + op journal).
SNAPSHOT_SCHEMA = 2


def _record_line(seq: int, op: str, arg) -> bytes:
    """One journal line: *op* is the :class:`ServiceState` method that was
    applied, *arg* its argument (a spec for ``announce``, an id for ``finish``)."""
    body = {"spec": spec_to_dict(arg)} if op == "announce" else {"flow_id": arg}
    return json.dumps({"seq": seq, "op": op, **body}).encode() + b"\n"


def _parse_record(line: bytes):
    """``(seq, op, arg)`` back from :func:`_record_line`; raises on anything else."""
    record = json.loads(line)
    op = record["op"]
    if op == "announce":
        return record["seq"], op, spec_from_dict(record["spec"])
    if op == "finish":
        return record["seq"], op, int(record["flow_id"])
    raise ValueError(f"unknown journal op {op!r}")


class ServiceState:
    """Flow table + incremental allocator + counters + journal plumbing.

    The counters below are the daemon's only metrics: subscribers read them
    through :meth:`telemetry_snapshot` (the SNAPSHOT_EVENT payload); the
    state writes into no :mod:`repro.telemetry` registry.

    Attributes:
        seq: Mutation sequence number (monotonic; durable).
        announces / finishes / queries: Operation counters.  ``seq``,
            ``announces``, flow-changing ``finishes`` and the allocator's
            incremental/fallback counts are replayed exactly after a
            crash; ``queries`` and finishes of unknown flows are not
            journaled, so they restore as of the last checkpoint.
        journal_records: Records in the file's tail — the replay debt.
        checkpoints: Checkpoints this instance has written.
        torn_tails: Half-written final records dropped by :meth:`restore`.
        stale_tmp_swept: Checkpoint temporaries a kill mid-checkpoint left
            beside ``snapshot_path``, deleted when this state opened it.
        query_latency: Wall-clock reservoir over :meth:`query` service
            times (telemetry only — never part of allocation answers).
    """

    def __init__(
        self,
        topology: Topology,
        headroom: float = 0.0,
        snapshot_path: Optional[str] = None,
        provider=None,
        capacities=None,
    ) -> None:
        self.incremental = IncrementalWaterfill(
            topology, provider=provider, headroom=headroom, capacities=capacities
        )
        self._headroom = float(headroom)
        self._snapshot_path = Path(snapshot_path) if snapshot_path else None
        self.seq = 0
        self.announces = 0
        self.finishes = 0
        self.queries = 0
        self.restored = False
        self.journal_records = 0
        self.checkpoints = 0
        self.torn_tails = 0
        self.stale_tmp_swept = 0
        #: the file that holds exactly this state (checkpoint + tail), if any
        self._journal_file: Optional[Path] = None
        self._replaying = False
        self.query_latency = LatencyReservoir(seed=0)
        if self._snapshot_path is not None:
            self.stale_tmp_swept = sweep_stale_temps(self._snapshot_path)
            if self._snapshot_path.exists():
                self.restore(self._snapshot_path)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def announce(self, spec: FlowSpec) -> bool:
        """Announce (or re-announce) one flow; returns ``True`` if new."""
        was_new = not self.incremental.has_flow(spec.flow_id)
        self.incremental.add_flow(spec)
        self.announces += 1
        self._after_mutation("announce", spec)
        return was_new

    def finish(self, flow_id: int) -> bool:
        """Retire one flow; returns ``False`` when it was not announced."""
        known = self.incremental.remove_flow(flow_id)
        self.finishes += 1
        if known:
            self._after_mutation("finish", flow_id)
        return known

    def query(self, flow_id: int) -> AllocReply:
        """Answer one allocation query from live incremental state."""
        started = time.perf_counter_ns()
        self.queries += 1
        if self.incremental.has_flow(flow_id):
            reply = AllocReply(
                flow_id=flow_id,
                known=True,
                rate_bps=self.incremental.rate(flow_id),
                bottleneck_link=self.incremental.bottleneck(flow_id),
            )
        else:
            reply = AllocReply(flow_id=flow_id, known=False)
        self.query_latency.record(time.perf_counter_ns() - started)
        return reply

    def _after_mutation(self, op: str, arg) -> None:
        self.seq += 1
        if self._snapshot_path is not None and not self._replaying:
            self._persist(op, arg)

    def _persist(self, op: str, arg) -> None:
        """Make the mutation just applied durable before it is acked."""
        path = self._snapshot_path
        # A failed write may leave half a record or a file one op behind, and
        # nothing may be appended after either: the file is disowned until
        # this write is known good (the next mutation then checkpoints).
        owned, self._journal_file = self._journal_file == path, None
        if not owned or self.journal_records >= self.incremental.n_flows:
            # No file yet, or one more record would make replay cost more
            # than re-announcing the table: the checkpoint covers this op.
            self.save_snapshot(path)
            return
        with open(path, "ab") as fh:
            fh.write(_record_line(self.seq, op, arg))
            fh.flush()
            os.fsync(fh.fileno())
        self._journal_file = path
        self.journal_records += 1

    def checkpoint(self) -> None:
        """Fold a non-empty journal tail into a fresh checkpoint (graceful
        stop: a clean restart then replays nothing)."""
        if self._snapshot_path is not None and self.journal_records:
            self.save_snapshot(self._snapshot_path)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def telemetry_snapshot(self) -> dict:
        """The SNAPSHOT_EVENT payload: counters, ratios, latency summary,
        journal state (``journal_records`` is the replay debt a kill right
        now would leave).  Which counters survive a kill exactly is in the
        class docstring."""
        stats = self.incremental.stats()
        alloc = self.incremental.allocation()
        return {
            "seq": self.seq,
            "flows": stats["n_flows"],
            "announces": self.announces,
            "finishes": self.finishes,
            "queries": self.queries,
            "incremental_ops": stats["incremental_ops"],
            "fallback_recomputes": stats["fallback_recomputes"],
            "incremental_ratio": stats["incremental_ratio"],
            "fallback_reasons": stats["fallback_reasons"],
            "aggregate_throughput_bps": alloc.aggregate_throughput_bps(),
            "max_link_utilization": alloc.max_link_utilization(),
            "query_latency": self.query_latency.to_dict(),
            "journal_records": self.journal_records,
            "checkpoints": self.checkpoints,
            "torn_tails": self.torn_tails,
            "stale_tmp_swept": self.stale_tmp_swept,
        }

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def _fabric(self) -> dict:
        """What a checkpoint must agree with the serving daemon on."""
        topology = self.incremental.topology
        return {
            "headroom": self._headroom,
            "topology": {
                "kind": type(topology).__name__,
                "n_nodes": topology.n_nodes,
                "n_links": topology.n_links,
            },
        }

    def save_snapshot(self, path) -> None:
        """Write a checkpoint: atomically replace *path* — checkpoint and
        journal tail in one rename — with the full state on one line."""
        path = Path(path)
        data = {
            "schema": SNAPSHOT_SCHEMA,
            "seq": self.seq,
            **self._fabric(),
            "counters": {
                "announces": self.announces,
                "finishes": self.finishes,
                "queries": self.queries,
            },
            "alloc": self.incremental.state_dict(),
        }
        atomic_write_bytes(path, json.dumps(data, sort_keys=True).encode() + b"\n")
        self.checkpoints += 1
        self.journal_records = 0
        self._journal_file = path

    def restore(self, path) -> None:
        """Load the checkpoint of a :meth:`save_snapshot` file verbatim, then
        replay its journal tail; rates restore bit-exactly.

        Records must continue the checkpoint's ``seq`` without a gap.  Only
        the *final* line may be damaged (no newline, or not a record — all
        a kill mid-append can leave): it is cut off the file and counted
        in :attr:`torn_tails`.  Anything else wrong is a
        :class:`~repro.errors.ServiceError` naming the line.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
            # What follows the last newline is a record cut short (normally
            # b""); a file without one whole line has no checkpoint at all.
            *lines, cut = raw.split(b"\n")
            data = json.loads(lines[0])
            schema = data.get("schema")
        except (OSError, ValueError, IndexError, AttributeError) as exc:
            raise ServiceError(
                f"cannot read snapshot {path}: line 1 is not a schema-"
                f"{SNAPSHOT_SCHEMA} checkpoint ({exc}); a schema-1 file (one "
                "indented document rewritten per mutation) is no longer read"
            ) from exc
        if schema != SNAPSHOT_SCHEMA:
            raise ServiceError(f"snapshot schema {schema!r} != {SNAPSHOT_SCHEMA}")
        fabric = {key: data.get(key) for key in ("headroom", "topology")}
        if fabric != self._fabric():
            raise ServiceError(
                f"snapshot {path} was taken on {fabric}, "
                f"this state serves {self._fabric()}"
            )
        self.incremental.load_state(data["alloc"])
        self.seq = checkpoint_seq = int(data.get("seq", 0))
        counters = data.get("counters", {})
        self.announces = int(counters.get("announces", 0))
        self.finishes = int(counters.get("finishes", 0))
        self.queries = int(counters.get("queries", 0))
        torn = len(cut)
        self._replaying = True
        try:
            for lineno, line in enumerate(lines[1:], start=2):
                try:
                    seq, op, arg = _parse_record(line)
                except (ValueError, KeyError, TypeError) as exc:
                    if lineno == len(lines) and not torn:
                        torn = len(line) + 1
                        break
                    raise ServiceError(f"{path}: line {lineno} is not a journal record") from exc
                if seq != self.seq + 1:
                    raise ServiceError(
                        f"{path}: line {lineno} has seq {seq!r}, expected {self.seq + 1}"
                    )
                getattr(self, op)(arg)
        finally:
            self._replaying = False
        self.journal_records = self.seq - checkpoint_seq
        if torn:
            os.truncate(path, len(raw) - torn)
            self.torn_tails += 1
        self._journal_file = path
        self.restored = True


__all__ = ["SNAPSHOT_SCHEMA", "ServiceState"]
