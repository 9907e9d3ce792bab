"""Kill/restart durability: a SIGKILLed daemon resumes bit-for-bit.

The contract (ISSUE acceptance): start ``repro serve`` with a snapshot
path, announce flows, SIGKILL the process (no shutdown hook runs), start
a fresh daemon from the same snapshot — and every ALLOC_REPLY must be
byte-identical both to the pre-kill answers and to an uninterrupted
in-process reference that replayed the same announcements.

The script makes more mutations than there are live flows (finishes and
re-announces included), so the kill lands after at least one compaction
and on a non-empty journal tail: the restart has to load a checkpoint
*and* replay records.  A SIGTERM, by contrast, leaves an empty tail.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.congestion import FlowSpec
from repro.service import ServiceClient, ServiceState, read_port_file
from repro.topology import TorusTopology
from repro.wire.control import FlowAnnounce

pytestmark = pytest.mark.service

_DIMS = (3, 3)
_HEADROOM = 0.0

#: (flow_id, src, dst, protocol, weight, demand_bps) — mixed protocols,
#: weights and finite/infinite demands, all wire-quantization-exact.
_FLOWS = (
    (1, 0, 4, "ecmp", 1.0, float("inf")),
    (2, 0, 4, "ecmp", 2.0, float("inf")),
    (3, 1, 5, "rps", 1.0, 2_000 * 1e6),
    (4, 2, 8, "ecmp", 1.5, float("inf")),
    (5, 3, 7, "rps", 1.0, float("inf")),
    (6, 6, 2, "ecmp", 0.5, 500 * 1e6),
)


def _serve(tmp_path, tag):
    port_file = tmp_path / f"port-{tag}"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--topology",
            "torus",
            "--dims",
            "x".join(map(str, _DIMS)),
            "--headroom",
            str(_HEADROOM),
            "--snapshot",
            str(tmp_path / "snapshot.json"),
            "--port-file",
            str(port_file),
            "--seconds",
            "60",
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        port = read_port_file(port_file, timeout=30.0)
    except Exception:
        process.kill()
        process.wait()
        raise
    return process, port


#: After ``_FLOWS``: finishes, demand/weight re-announces and a come-back —
#: ``("finish", flow_id)`` or an announce row shaped like those of ``_FLOWS``.
#: 15 mutations over at most 6 live flows.
_CHURN = (
    ("finish", 2),
    (3, 1, 5, "rps", 1.0, 4_000 * 1e6),
    ("finish", 5),
    (7, 4, 0, "ecmp", 2.0, float("inf")),
    (1, 0, 4, "ecmp", 0.5, 1_000 * 1e6),
    ("finish", 6),
    (2, 0, 4, "rps", 1.0, float("inf")),
    (4, 2, 8, "ecmp", 1.5, 3_000 * 1e6),
    (8, 7, 3, "rps", 1.0, float("inf")),
)
_SCRIPT = _FLOWS + _CHURN
_LIVE = (1, 2, 3, 4, 7, 8)


def _run_script(client):
    for row in _SCRIPT:
        if row[0] == "finish":
            assert client.finish(row[1]).code == 0
        else:
            fid, src, dst, protocol, weight, demand = row
            client.announce(
                fid, src=src, dst=dst, protocol=protocol, weight=weight, demand_bps=demand
            )


def _reference_replies():
    """Uninterrupted in-process run over the identical (wire-quantized)
    script, encoding replies exactly like the daemon does."""
    from repro.routing import protocol_class

    state = ServiceState(TorusTopology(_DIMS), headroom=_HEADROOM)
    for row in _SCRIPT:
        if row[0] == "finish":
            state.finish(row[1])
            continue
        fid, src, dst, protocol, weight, demand = row
        message = FlowAnnounce(
            flow_id=fid,
            src=src,
            dst=dst,
            protocol_id=protocol_class(protocol).protocol_id,
            weight=weight,
            demand_bps=demand,
        )
        decoded = FlowAnnounce.decode(message.encode())
        state.announce(FlowSpec.from_wire(decoded))
    assert tuple(spec.flow_id for spec in state.incremental.flows()) == _LIVE
    return [state.query(fid).encode() for fid in _LIVE]


def _tail_records(tmp_path):
    return (tmp_path / "snapshot.json").read_bytes().count(b"\n") - 1


def test_sigkill_then_restore_is_byte_identical(tmp_path):
    flow_ids = list(_LIVE)

    process, port = _serve(tmp_path, "first")
    try:
        with ServiceClient("127.0.0.1", port) as client:
            _run_script(client)
            before = client.query_many_raw(flow_ids)
            with ServiceClient("127.0.0.1", port) as sub:
                journal = sub.subscribe(max_events=1).payload
        # SIGKILL: no graceful shutdown, no final checkpoint.
        process.kill()
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    # The kill landed past a compaction (the first checkpoint is the file's
    # creation) and on records only a replay can recover.
    assert journal["checkpoints"] >= 2
    assert _tail_records(tmp_path) == journal["journal_records"] > 0

    process, port = _serve(tmp_path, "second")
    try:
        with ServiceClient("127.0.0.1", port) as client:
            after = client.query_many_raw(flow_ids)
            # The restored daemon keeps serving mutations too.
            assert client.finish(flow_ids[0]).code == 0
            assert not client.query(flow_ids[0]).known
    finally:
        process.terminate()
        process.wait(timeout=30)
    # SIGTERM is a graceful stop: the tail is folded into a checkpoint.
    assert _tail_records(tmp_path) == 0

    assert after == before, "restored allocation answers differ from pre-kill"
    assert before == _reference_replies(), (
        "daemon answers differ from the uninterrupted in-process reference"
    )
