"""Durable by journal: crash anywhere, restore bit-for-bit.

A durable :class:`ServiceState` keeps one file: a checkpoint line, then one
fsynced record per mutation.  These tests kill it — deterministically and
in process, by handing a fresh state exactly the bytes a dead process
would have left — at every kind of point:

* ``whole``      after a whole record;
* ``torn``       inside a record, at a random byte (the op is then redone,
                 as an un-acked client would);
* ``compacted``  right after a checkpoint replaced checkpoint + tail;
* ``tmp``        mid-checkpoint: the old file intact plus a stray
                 half-written ``.tmp`` sibling (the op is redone; the
                 open deletes the sibling and counts it).

Every restore must equal an uninterrupted volatile reference stopped after
the last whole record — full ``state_dict()`` and every raw ``AllocReply``
— and finishing the run on the restored state must end at the reference's
``allocation_digest``.
"""

import json
import os
import random

import pytest

from repro.congestion import FlowSpec
from repro.errors import ReproError, ServiceError
from repro.service import ServiceState, allocation_digest
from repro.service import state as state_module
from repro.topology import MeshTopology, TorusTopology
from repro.validation.churn import churn_ops

pytestmark = pytest.mark.service

_TOPOLOGY = TorusTopology((3, 3))
_HEADROOM = 0.05
_N_OPS = 1200
_MAX_FLOWS = 16
_KINDS = ("whole", "torn", "compacted", "tmp")


def _ops(seed=19, n_ops=_N_OPS):
    """Adds, removes and demand re-announces; rps/ecmp, mixed weights,
    finite and infinite demands (``churn_ops``); no failure-view flip."""
    return churn_ops(
        seed,
        _TOPOLOGY.n_nodes,
        n_ops,
        max_flows=_MAX_FLOWS,
        capacity_bps=_TOPOLOGY.capacity_bps,
    )


def _apply(state, op, specs):
    """One churn op through the entry points the daemon dispatches to."""
    if op["op"] == "add":
        specs[op["spec"].flow_id] = op["spec"]
        state.announce(op["spec"])
    elif op["op"] == "remove":
        del specs[op["flow_id"]]
        state.finish(op["flow_id"])
    else:  # a demand update is a re-announce, like over the wire
        specs[op["flow_id"]] = specs[op["flow_id"]].with_demand(op["demand_bps"])
        state.announce(specs[op["flow_id"]])


def _observe(state):
    """Everything a restore must reproduce exactly."""
    flow_ids = [spec.flow_id for spec in state.incremental.flows()]
    return {
        "alloc": state.incremental.state_dict(),
        "replies": [state.query(flow_id).encode() for flow_id in flow_ids],
        "counters": (state.seq, state.announces, state.finishes),
    }


def _durable(path):
    return ServiceState(_TOPOLOGY, headroom=_HEADROOM, snapshot_path=str(path))


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted volatile run: ``after[k]`` is the observation once
    the first *k* ops are applied; ``digest`` the final allocation digest."""
    state = ServiceState(_TOPOLOGY, headroom=_HEADROOM)
    specs = {}
    after = [_observe(state)]
    for op in _ops():
        _apply(state, op, specs)
        after.append(_observe(state))
    return {"after": after, "digest": allocation_digest(state)}


def _kill(crash_dir, kind, before, after, rng):
    """Leave in *crash_dir* what a process killed at a *kind* point of the
    write that turned the file from *before* into *after* leaves behind.
    Returns the snapshot path and whether that write survived."""
    crash_dir.mkdir()
    path = crash_dir / "state.json"
    if kind in ("whole", "compacted"):
        path.write_bytes(after)
        return path, True
    if kind == "torn":
        record = after[len(before):]
        # 1 .. len-1 bytes of the record: the last choice is the whole JSON
        # text without its newline.
        path.write_bytes(before + record[: rng.randrange(1, len(record))])
    else:
        path.write_bytes(before)
        stray = crash_dir / f".{path.name}.k1ll3d.tmp"
        stray.write_bytes(after[: rng.randrange(len(after))])
    return path, False


def _tail_records(content):
    return content.count(b"\n") - 1


@pytest.fixture
def page_cache_only(monkeypatch):
    """The crash tests below kill nothing for real: they hand a new state
    the bytes ``read_bytes()`` sees, which ``fsync`` does not change.  Without
    it 6,000 durable ops cost a third as much; that every append *is*
    fsynced is ``TestWritePath``'s business (and the SIGKILL test's)."""
    monkeypatch.setattr(os, "fsync", lambda _fd: None)


def _step(state, path, op, specs):
    """Apply *op*; returns the file before and after, whether the write was
    a checkpoint, and the live specs to go back to if it is to be redone."""
    before = path.read_bytes() if path.exists() else b""
    checkpoints = state.checkpoints
    was_live = dict(specs)
    _apply(state, op, specs)
    return before, path.read_bytes(), state.checkpoints > checkpoints, was_live


def test_crash_at_every_kind_of_point(tmp_path, reference, page_cache_only):
    """≥ 300 chained crashes over one 1,200-op run: each restored state
    equals the reference and carries the run on, to the reference digest."""
    ops = _ops()
    rng = random.Random(0xD1E)
    path = tmp_path / "live" / "state.json"
    state = _durable(path)
    specs = {}
    crashes = dict.fromkeys(_KINDS, 0)
    index = 0
    redo = False  # the op at *index* is being redone after a crash: let it land
    while index < len(ops):
        before, after, compacted, was_live = _step(state, path, ops[index], specs)

        # The file never outgrows checkpoint + (live flows + 1) records, and
        # the state knows its own replay debt.
        assert _tail_records(after) == state.journal_records <= state.incremental.n_flows + 1
        assert after.endswith(b"\n")

        if compacted:
            assert _tail_records(after) == 0
            kind = rng.choice(("compacted", "tmp")) if before else "compacted"
        else:
            assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
            kind = rng.choice(("whole", "torn")) if rng.random() < 0.3 else None
        if redo or kind is None:
            redo = False
            index += 1
            continue

        crashes[kind] += 1
        crash_dir = tmp_path / f"crash-{sum(crashes.values())}"
        path, survived = _kill(crash_dir, kind, before, after, rng)
        if survived:
            index += 1
        else:
            specs, redo = was_live, True
        state = _durable(path)
        assert state.restored
        assert _observe(state) == reference["after"][index], (kind, index)
        assert state.torn_tails == (1 if kind == "torn" else 0)
        assert state.stale_tmp_swept == (1 if kind == "tmp" else 0)
        assert not list(crash_dir.glob("*.tmp"))
        if kind == "compacted":
            assert state.journal_records == 0
        # Whatever was torn off is gone from the file too.
        assert path.read_bytes() == (after if survived else before)

    assert sum(crashes.values()) >= 300 and min(crashes.values()) >= 20, crashes
    assert allocation_digest(state) == reference["digest"]
    assert _observe(state) == reference["after"][-1]
    # ... and the file it leaves restores to the same thing once more.
    assert _observe(_durable(path)) == reference["after"][-1]


@pytest.mark.parametrize(
    "kind, crash_at", (("whole", 37), ("torn", 311), ("compacted", 611), ("tmp", 907))
)
def test_single_crash_then_uninterrupted_remainder(
    tmp_path, reference, page_cache_only, kind, crash_at
):
    """One crash, then the rest of the run with no further restore to
    re-derive anything: still the reference digest."""
    ops = _ops()
    rng = random.Random(crash_at)
    path = tmp_path / "state.json"
    state = _durable(path)
    specs = {}
    index = 0
    while True:
        before, after, compacted, was_live = _step(state, path, ops[index], specs)
        if index >= crash_at and compacted == (kind in ("compacted", "tmp")):
            break
        index += 1
    path, survived = _kill(tmp_path / "crash", kind, before, after, rng)
    if survived:
        index += 1
    else:
        specs = was_live
    state = _durable(path)
    assert _observe(state) == reference["after"][index]
    for op in ops[index:]:
        _apply(state, op, specs)
    assert allocation_digest(state) == reference["digest"]
    assert _observe(state) == reference["after"][-1]


# ---------------------------------------------------------------------- #
# The file format's edges
# ---------------------------------------------------------------------- #


def _small_journal(tmp_path, n_flows=6):
    """A durable state with a checkpoint and an ``n_flows - 1`` record tail."""
    path = tmp_path / "state.json"
    state = _durable(path)
    for fid in range(n_flows):
        state.announce(FlowSpec(flow_id=fid, src=fid, dst=(fid + 4) % 9, protocol="ecmp"))
    assert state.checkpoints == 1 and state.journal_records == n_flows - 1
    return state, path


class TestStaleTemporaries:
    def test_swept_on_open_and_counted_look_alikes_kept(self, tmp_path):
        """A kill between a checkpoint's ``mkstemp`` and its rename leaves
        ``.<name>.<token>.tmp``; the next open deletes exactly that."""
        live, path = _small_journal(tmp_path)
        whole = path.read_bytes()
        stray = tmp_path / f".{path.name}.k1ll3d.tmp"
        stray.write_bytes(whole[:17])
        look_alikes = [
            tmp_path / f".{path.name}.tmp",  # no token
            tmp_path / f".{path.name}.old.k1ll3d.tmp",  # state.json.old's temporary
            tmp_path / f"{path.name}.k1ll3d.tmp",  # not hidden
            tmp_path / ".other.json.k1ll3d.tmp",
        ]
        for other in look_alikes:
            other.write_bytes(b"keep")

        restored = _durable(path)
        assert restored.stale_tmp_swept == 1
        assert restored.telemetry_snapshot()["stale_tmp_swept"] == 1
        assert not stray.exists()
        assert [other.read_bytes() for other in look_alikes] == [b"keep"] * len(look_alikes)
        assert path.read_bytes() == whole
        assert _observe(restored) == _observe(live)
        assert _durable(path).stale_tmp_swept == 0  # it is gone: nothing to count twice


class TestTornTail:
    @pytest.mark.parametrize(
        "garbage",
        (b'{"seq": 7, "op": "annou', b'{"seq": 7, "op": "finish", "flow_id": 0}', b"\x00\x00\x00\n"),
        ids=("cut-json", "whole-json-no-newline", "unparsable-final-line"),
    )
    def test_counted_once_and_cut_off_before_the_next_append(self, tmp_path, garbage):
        live, path = _small_journal(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole + garbage)

        restored = _durable(path)
        assert restored.torn_tails == 1
        assert restored.telemetry_snapshot()["torn_tails"] == 1
        assert restored.incremental.state_dict() == live.incremental.state_dict()
        assert path.read_bytes() == whole
        assert _durable(path).torn_tails == 0  # it is gone: nothing to count twice

        restored.announce(FlowSpec(flow_id=6, src=6, dst=1, protocol="rps"))
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and json.loads(lines[-2])["spec"]["flow_id"] == 6
        assert [json.loads(line)["seq"] for line in lines[1:-1]] == list(range(2, 8))
        assert _durable(path).seq == restored.seq == 7

    def test_corrupt_middle_line_is_fatal_and_named(self, tmp_path):
        _live, path = _small_journal(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3][:-9]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ServiceError, match=r"line 4 is not a journal record"):
            _durable(path)

    def test_damaged_line_before_a_cut_record_is_not_a_torn_tail(self, tmp_path):
        _live, path = _small_journal(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[-2] = b"{}"
        path.write_bytes(b"\n".join(lines) + b'{"seq"')
        with pytest.raises(ServiceError, match=r"line 6"):
            _durable(path)

    def test_seq_gap_is_fatal_and_named(self, tmp_path):
        _live, path = _small_journal(tmp_path)
        lines = path.read_bytes().split(b"\n")
        del lines[2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ServiceError, match=r"line 3 has seq 4, expected 3"):
            _durable(path)

    def test_unknown_op_is_not_a_record(self, tmp_path):
        _live, path = _small_journal(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b'{"seq": 3, "op": "rebuild", "flow_id": 1}'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ServiceError, match=r"line 3"):
            _durable(path)


class TestCheckpointHeader:
    def test_schema_1_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "seq": 0}, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ServiceError, match="schema-1"):
            _durable(path)
        path.write_text(json.dumps({"schema": 1, "seq": 0}) + "\n")
        with pytest.raises(ServiceError, match=r"schema 1 != 2"):
            _durable(path)

    def test_file_without_a_whole_line_is_refused_untouched(self, tmp_path):
        path = tmp_path / "state.json"
        for content in (b"", b'{"schema": 2'):
            path.write_bytes(content)
            with pytest.raises(ServiceError, match="cannot read snapshot"):
                _durable(path)
            assert path.read_bytes() == content

    def test_restore_refuses_another_headroom(self, tmp_path):
        """The silent divergence this guards against: a table filled at
        headroom 0 and patched at headroom 0.5 leaves flow 1 at the full
        link where a scratch fill says half of it."""
        path = tmp_path / "state.json"
        taken = ServiceState(_TOPOLOGY, headroom=0.0, snapshot_path=str(path))
        taken.announce(FlowSpec(flow_id=1, src=0, dst=1, protocol="ecmp"))
        with pytest.raises(ServiceError, match=r"'headroom': 0\.0.*'headroom': 0\.5"):
            ServiceState(_TOPOLOGY, headroom=0.5, snapshot_path=str(path))

    def test_restore_refuses_another_kind_of_fabric(self, tmp_path):
        # Same node and link counts cannot be arranged across kinds here, so
        # the kind is checked on its own: same dims, mesh instead of torus.
        path = tmp_path / "state.json"
        _durable(path).announce(FlowSpec(flow_id=1, src=0, dst=1))
        with pytest.raises(ServiceError, match=r"TorusTopology.*MeshTopology"):
            ServiceState(MeshTopology((3, 3)), headroom=_HEADROOM, snapshot_path=str(path))


class TestWritePath:
    def test_volatile_state_builds_no_record_and_touches_no_file(self, tmp_path, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a volatile state reached the persistence path")

        for name in ("_record_line", "spec_to_dict", "atomic_write_bytes", "open"):
            monkeypatch.setattr(state_module, name, refuse, raising=False)
        monkeypatch.setattr(state_module.json, "dumps", refuse)
        monkeypatch.chdir(tmp_path)
        state = ServiceState(_TOPOLOGY, headroom=_HEADROOM)
        specs = {}
        for op in _ops(n_ops=60):
            _apply(state, op, specs)
        state.checkpoint()
        assert state.seq == 60
        assert (state.journal_records, state.checkpoints) == (0, 0)
        assert list(tmp_path.iterdir()) == []

    def test_every_append_is_fsynced_before_the_mutation_returns(self, tmp_path, monkeypatch):
        """No group commit, no deferred flush: one fsync of the snapshot file
        per journaled mutation, after its bytes are in the file."""
        live, path = _small_journal(tmp_path)
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append((os.path.samestat(os.fstat(fd), os.stat(path)), path.read_bytes()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        for fid in (6, 7, 8):
            live.announce(FlowSpec(flow_id=fid, src=fid, dst=0, protocol="ecmp"))
            is_snapshot_file, content = synced[-1]
            assert is_snapshot_file and len(synced) == fid - 5
            assert json.loads(content.split(b"\n")[-2])["seq"] == live.seq == fid + 1

    def test_no_file_before_the_first_mutation_then_a_checkpoint(self, tmp_path):
        path = tmp_path / "state.json"
        state = _durable(path)
        state.query(1)
        state.finish(1)  # unknown flow: not a mutation
        assert not path.exists() and not state.restored
        state.announce(FlowSpec(flow_id=1, src=0, dst=4))
        assert _tail_records(path.read_bytes()) == 0 and state.checkpoints == 1

    def test_failed_append_is_never_appended_after(self, tmp_path, monkeypatch):
        """An append that fails (disk full, I/O error) may leave half a record
        and an op the file never saw; the next mutation must replace the file,
        not write a seq gap behind a torn line."""
        live, path = _small_journal(tmp_path)

        def disk_full(_fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            live.finish(0)
        monkeypatch.undo()
        live.finish(1)
        assert live.checkpoints == 2 and _tail_records(path.read_bytes()) == 0
        assert _durable(path).incremental.state_dict() == live.incremental.state_dict()

    def test_refused_reannounce_changes_nothing_on_disk_or_in_memory(self, tmp_path):
        """A rejected announce is not a mutation — it used to drop the live
        flow it re-announced, with no record of it."""
        live, path = _small_journal(tmp_path)
        content, alloc = path.read_bytes(), live.incremental.state_dict()
        for bad in (
            FlowSpec(flow_id=2, src=0, dst=99),
            FlowSpec(flow_id=2, src=0, dst=4, protocol="no-such-protocol"),
        ):
            with pytest.raises(ReproError):
                live.announce(bad)
        assert live.incremental.state_dict() == alloc and live.seq == 6
        assert path.read_bytes() == content

    def test_checkpoint_folds_the_tail_and_is_idempotent(self, tmp_path):
        live, path = _small_journal(tmp_path)
        live.checkpoint()
        folded = path.read_bytes()
        assert _tail_records(folded) == 0 and live.checkpoints == 2
        live.checkpoint()  # empty tail: nothing to write
        assert live.checkpoints == 2 and path.read_bytes() == folded
        restored = _durable(path)
        assert restored.journal_records == 0 and restored.seq == live.seq
        assert restored.telemetry_snapshot()["journal_records"] == 0
