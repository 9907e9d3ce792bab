"""In-process daemon tests: the asyncio listener and the blocking client.

Each test runs the daemon inside ``asyncio.run`` and drives the blocking
:class:`ServiceClient` from an executor thread — no pytest-asyncio, no
subprocesses, no sleeps: the client's first connect only happens after
``start()`` has bound the listener.
"""

import asyncio
import logging
import math
import shutil

import pytest

from repro.congestion import FlowSpec
from repro.errors import ServiceError
from repro.service import ControlDaemon, ServiceClient, ServiceState
from repro.topology import TorusTopology
from repro.wire import control as ctl

pytestmark = pytest.mark.service


def _drive(state, fn):
    """Run the daemon, call ``fn(port)`` in a worker thread, tear down."""

    async def scenario():
        daemon = ControlDaemon(state)
        await daemon.start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, fn, daemon.port)
        finally:
            await daemon.stop()

    return asyncio.run(scenario())


@pytest.fixture
def state():
    return ServiceState(TorusTopology((3, 3)), headroom=0.0)


class TestRequestReply:
    def test_announce_query_finish(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                ack = client.announce(1, src=0, dst=4, protocol="ecmp")
                assert ack.code == ctl.ACK_OK
                reply = client.query(1)
                assert reply.known and reply.rate_bps > 0
                assert reply.bottleneck_link is not None
                fin = client.finish(1)
                assert fin.code == ctl.ACK_OK
                assert not client.query(1).known

        _drive(state, script)
        assert state.announces == 1 and state.finishes == 1 and state.queries == 2

    def test_query_answers_match_state_bytes(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                for fid in range(4):
                    client.announce(fid, src=fid, dst=(fid + 4) % 9)
                return client.query_many_raw(range(4))

        raw = _drive(state, script)
        queries_before = state.queries
        expected = [state.query(fid).encode() for fid in range(4)]
        assert raw == expected
        assert state.queries == queries_before + 4

    def test_finish_unknown_flow_acked_as_unknown(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                assert client.finish(404).code == ctl.ACK_UNKNOWN_FLOW
                assert not client.query(404).known

        _drive(state, script)

    def test_demand_survives_wire_quantization(self, state):
        demand = 1_500 * 1e6  # whole Mbps: quantization-exact on the wire

        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.announce(1, src=0, dst=4, demand_bps=demand)
                return client.query(1).rate_bps

        rate = _drive(state, script)
        assert rate == pytest.approx(demand)
        (spec,) = state.incremental.flows()
        assert spec.demand_bps == demand

    def test_announce_spec_sends_every_field(self, state):
        # Values the wire carries exactly: weight in 1/16 steps, whole Mbps.
        sent = FlowSpec(7, 1, 5, "ecmp", weight=1.5, priority=2, demand_bps=2e9)

        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                assert client.announce_spec(sent).code == ctl.ACK_OK

        _drive(state, script)
        (spec,) = state.incremental.flows()
        assert (spec.flow_id, spec.src, spec.dst, spec.protocol) == (7, 1, 5, "ecmp")
        assert (spec.weight, spec.priority, spec.demand_bps) == (1.5, 2, 2e9)


class TestSnapshotStream:
    def test_subscriber_sees_mutations(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as sub:
                first = sub.subscribe()
                with ServiceClient("127.0.0.1", port) as mutator:
                    mutator.announce(7, src=1, dst=5)
                pushed = sub.next_snapshot()
                return first, pushed

        first, pushed = _drive(state, script)
        assert first.seq == 0 and first.payload["flows"] == 0
        assert pushed.seq == 1
        assert pushed.payload["flows"] == 1
        assert pushed.payload["announces"] == 1

    def test_bounded_subscription_closes_after_budget(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as sub:
                event = sub.subscribe(max_events=1)
                assert event.seq == 0
                # Budget spent: the daemon must not push further events.
                with ServiceClient("127.0.0.1", port) as mutator:
                    mutator.announce(1, src=0, dst=4)
                sub.send(ctl.AllocQuery(1))
                return sub.recv()

        reply = _drive(state, script)
        # The next frame on the wire is our reply, not a snapshot push.
        assert isinstance(reply, ctl.AllocReply) and reply.known


class TestProtocolErrors:
    def test_corrupt_frame_gets_error_and_close(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                good = ctl.AllocQuery(1).encode()
                bad = bytes([good[0]]) + bytes(len(good) - 1)  # checksum dead
                client.send_raw(bad)
                err = client.recv()
                assert isinstance(err, ctl.ControlError)
                assert err.code == ctl.ERR_MALFORMED
                # Daemon closes the stream after a malformed frame.
                with pytest.raises(ServiceError):
                    client.recv()

        _drive(state, script)

    def test_oversized_length_prefix_gets_error_and_close(self, state, caplog):
        """A length prefix beyond MAX_FRAME_SIZE is answered like any other
        malformed frame (it used to escape the connection task: the client
        read EOF and asyncio logged an unhandled exception)."""

        def script(port):
            with ServiceClient("127.0.0.1", port) as bystander:
                bystander.announce(1, src=0, dst=4)
                with ServiceClient("127.0.0.1", port) as client:
                    client._sock.sendall((ctl.MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
                    err = client.recv()
                    assert isinstance(err, ctl.ControlError)
                    assert err.code == ctl.ERR_MALFORMED
                    assert "MAX_FRAME_SIZE" in err.message
                    with pytest.raises(ServiceError):
                        client.recv()
                # Other connections, old and new, are still served.
                assert bystander.query(1).known
                with ServiceClient("127.0.0.1", port) as late:
                    assert late.query(1).known

        with caplog.at_level(logging.ERROR):
            _drive(state, script)
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_server_only_message_rejected(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.send(ctl.AllocReply(flow_id=1, known=False))
                err = client.recv()
                assert isinstance(err, ctl.ControlError)
                assert err.code == ctl.ERR_UNSUPPORTED

        _drive(state, script)

    def test_unroutable_announce_rejected_not_fatal(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.send(
                    ctl.FlowAnnounce(flow_id=1, src=0, dst=9999)  # off-rack dst
                )
                err = client.recv()
                assert isinstance(err, ctl.ControlError)
                assert err.code == ctl.ERR_REJECTED
                # The connection (and the daemon) keeps serving.
                ack = client.announce(2, src=0, dst=4)
                assert ack.code == ctl.ACK_OK

        _drive(state, script)
        assert state.incremental.n_flows == 1

    def test_client_surfaces_error_as_service_error(self, state):
        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.send_raw(b"\x70")
                with pytest.raises(ServiceError):
                    client.query(1)

        _drive(state, script)


class TestDurability:
    def test_every_mutation_is_on_disk_before_its_ack(self, tmp_path):
        """Every mutation is on disk before its ack: after each ack a copy
        of the file — what a SIGKILL right then would leave — restores to
        exactly that mutation.  The graceful stop then folds the journal
        tail into a checkpoint, so a clean restart replays nothing."""
        snap = tmp_path / "state.json"
        topology = TorusTopology((3, 3))
        state = ServiceState(topology, headroom=0.0, snapshot_path=str(snap))

        def on_disk(tag):
            copy = tmp_path / f"killed-{tag}.json"
            shutil.copyfile(snap, copy)
            return ServiceState(topology, headroom=0.0, snapshot_path=str(copy))

        def script(port):
            with ServiceClient("127.0.0.1", port) as client:
                client.announce(1, src=0, dst=4)
                assert on_disk("a").seq == 1
                client.announce(2, src=1, dst=5)
                client.announce(3, src=2, dst=6)
                killed = on_disk("b")
                assert killed.seq == 3 and killed.journal_records == 2
                assert killed.incremental.state_dict() == state.incremental.state_dict()
                client.finish(1)
                killed = on_disk("c")
                assert killed.seq == 4 and not killed.incremental.has_flow(1)

        _drive(state, script)
        assert state.journal_records == 0 and snap.read_bytes().count(b"\n") == 1
        restored = ServiceState(topology, headroom=0.0, snapshot_path=str(snap))
        assert restored.restored and restored.journal_records == 0
        assert restored.seq == state.seq == 4
        assert restored.incremental.n_flows == 2
        assert restored.query(2).encode() == state.query(2).encode()
