"""Blocking socket client for the ``repro serve`` control protocol.

:class:`ServiceClient` is the test/tooling workhorse: a plain ``socket``
speaking the same length-prefixed frames as the asyncio daemon, one
request/reply at a time.  The raw-bytes variants (:meth:`query_raw`)
return the undecoded reply body so the kill/restore test can assert
byte-for-byte identity of allocation answers.
"""

from __future__ import annotations

import math
import socket
from typing import List, Optional

from ..congestion import FlowSpec
from ..errors import ServiceError
from ..routing import protocol_class
from ..wire import control as ctl


class ServiceClient:
    """One blocking connection to a control daemon."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(f"cannot connect to {host}:{port}: {exc}") from exc

    def close(self) -> None:
        """Close the connection."""
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Framing
    # ------------------------------------------------------------------ #

    def send(self, message) -> None:
        """Send one control message."""
        self._sock.sendall(ctl.encode_frame(message.encode()))

    def send_raw(self, body: bytes) -> None:
        """Frame and send raw body bytes (corruption/fault-injection tests)."""
        self._sock.sendall(ctl.encode_frame(body))

    def recv_body(self) -> bytes:
        """Receive one frame body (blocking)."""
        length = ctl.frame_length(self._recv_exact(ctl.FRAME_PREFIX_SIZE))
        return self._recv_exact(length)

    def recv(self):
        """Receive and decode one control message."""
        return ctl.decode_control(self.recv_body())

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ServiceError("daemon closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # ------------------------------------------------------------------ #
    # RPCs
    # ------------------------------------------------------------------ #

    def announce(
        self,
        flow_id: int,
        src: int,
        dst: int,
        protocol: str = "rps",
        weight: float = 1.0,
        priority: int = 0,
        demand_bps: float = math.inf,
    ) -> ctl.ControlAck:
        """FLOW_ANNOUNCE one flow and wait for the ack."""
        self.send(
            ctl.FlowAnnounce(
                flow_id=flow_id,
                src=src,
                dst=dst,
                protocol_id=protocol_class(protocol).protocol_id,
                weight=weight,
                priority=priority,
                demand_bps=demand_bps,
            )
        )
        return self._expect(ctl.ControlAck)

    def announce_spec(self, spec: FlowSpec) -> ctl.ControlAck:
        """FLOW_ANNOUNCE from a :class:`FlowSpec`."""
        return self.announce(
            flow_id=spec.flow_id,
            src=spec.src,
            dst=spec.dst,
            protocol=spec.protocol,
            weight=spec.weight,
            priority=spec.priority,
            demand_bps=spec.demand_bps,
        )

    def finish(self, flow_id: int) -> ctl.ControlAck:
        """FLOW_FINISH one flow and wait for the ack."""
        self.send(ctl.FlowFinish(flow_id))
        return self._expect(ctl.ControlAck)

    def query(self, flow_id: int) -> ctl.AllocReply:
        """ALLOC_QUERY one flow."""
        self.send(ctl.AllocQuery(flow_id))
        return self._expect(ctl.AllocReply)

    def query_raw(self, flow_id: int) -> bytes:
        """ALLOC_QUERY, returning the raw (undecoded) reply body."""
        self.send(ctl.AllocQuery(flow_id))
        body = self.recv_body()
        if ctl.control_type(body) != ctl.TYPE_ALLOC_REPLY:
            raise ServiceError(
                f"expected ALLOC_REPLY, got {ctl.decode_control(body)!r}"
            )
        return body

    def subscribe(self, max_events: int = 0) -> ctl.SnapshotEvent:
        """SNAPSHOT_SUB; returns the immediately-sent current snapshot.

        Further events arrive on this connection as the daemon mutates;
        read them with :meth:`next_snapshot`.
        """
        self.send(ctl.SnapshotSubscribe(max_events=max_events))
        return self._expect(ctl.SnapshotEvent)

    def next_snapshot(self) -> ctl.SnapshotEvent:
        """Block until the next SNAPSHOT_EVENT arrives."""
        return self._expect(ctl.SnapshotEvent)

    def query_many_raw(self, flow_ids) -> List[bytes]:
        """Raw ALLOC_REPLY bodies for many flows (one RPC each)."""
        return [self.query_raw(fid) for fid in flow_ids]

    def _expect(self, kind):
        message = self.recv()
        if isinstance(message, ctl.ControlError):
            raise ServiceError(
                f"daemon error {message.code}: {message.message}"
            )
        if not isinstance(message, kind):
            raise ServiceError(f"expected {kind.__name__}, got {message!r}")
        return message


def read_port_file(path, timeout: float = 10.0, poll: float = 0.02) -> int:
    """Wait for a daemon's ``--port-file`` to appear and return the port."""
    import time
    from pathlib import Path

    deadline = time.monotonic() + timeout
    port_path = Path(path)
    while time.monotonic() < deadline:
        if port_path.exists():
            text = port_path.read_text().strip()
            if text:
                return int(text)
        time.sleep(poll)
    raise ServiceError(f"port file {path} did not appear within {timeout}s")


__all__ = ["ServiceClient", "read_port_file"]
