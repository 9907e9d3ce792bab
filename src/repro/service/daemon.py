"""The ``repro serve`` asyncio daemon.

One :class:`ControlDaemon` wraps a :class:`~repro.service.state.ServiceState`
behind an ``asyncio.start_server`` listener speaking the length-prefixed
control protocol of :mod:`repro.wire.control`:

* FLOW_ANNOUNCE / FLOW_FINISH mutate the flow table (each acked with
  CONTROL_ACK) and fan a fresh SNAPSHOT_EVENT out to subscribers;
* ALLOC_QUERY is answered with ALLOC_REPLY straight from the live
  incremental allocation — no recompute on the query path;
* SNAPSHOT_SUB registers the connection for telemetry snapshots (the
  current one is sent immediately);
* malformed frames get a CONTROL_ERROR and the connection is closed
  (a corrupt length prefix leaves the stream unrecoverable).

Readiness handshake: ``serve()`` optionally writes the bound port to a
``port_file`` (atomically) only *after* the listener is accepting, so
supervisors and tests can discover an ephemeral port without polling the
socket.  Shutdown: SIGTERM/SIGINT (or ``max_seconds``) stops the loop
gracefully and folds the journal into a final checkpoint; because every
mutation was journaled and fsynced before its ack, SIGKILL at any point
is also recoverable (the restart replays the tail).
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import List, Optional, Tuple

from ..congestion import FlowSpec
from ..errors import ReproError, ServiceError, WireFormatError
from ..wire import control as ctl
from .state import ServiceState


class ControlDaemon:
    """Serve one :class:`ServiceState` over the binary control protocol."""

    def __init__(
        self,
        state: ServiceState,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port  # 0 = ephemeral; set to the bound port by start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = None  # asyncio.Event, created inside the running loop
        self._conn_tasks = set()
        #: live snapshot subscriptions: (writer, remaining-events or None)
        self._subscribers: List[Tuple[asyncio.StreamWriter, Optional[int]]] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the real port after."""
        if self._server is not None:
            raise ServiceError("daemon already started")
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and all connections, then checkpoint."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        for writer, _ in self._subscribers:
            writer.close()
        self._subscribers.clear()
        self.state.checkpoint()

    def request_stop(self) -> None:
        """Ask :meth:`serve` to exit (signal-handler safe)."""
        if self._stop is not None:
            self._stop.set()

    async def serve(
        self,
        port_file: Optional[str] = None,
        max_seconds: Optional[float] = None,
        install_signal_handlers: bool = False,
    ) -> None:
        """Run until :meth:`request_stop`, SIGTERM/SIGINT or *max_seconds*.

        When *port_file* is given the bound port is written there
        (atomically) once the listener accepts connections — the readiness
        handshake used by the kill/restart tests and the CI smoke.
        """
        await self.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(sig, self.request_stop)
        if port_file:
            from ..core.ioutil import atomic_write_text

            atomic_write_text(port_file, f"{self.port}\n")
        try:
            if max_seconds is None:
                await self._stop.wait()
            else:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._stop.wait(), timeout=max_seconds)
        finally:
            await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    body = await self._read_frame(reader)
                    if body is None:
                        break
                    message = ctl.decode_control(body)
                except WireFormatError as exc:
                    await self._send(
                        writer, ctl.ControlError(ctl.ERR_MALFORMED, str(exc))
                    )
                    break
                if not await self._dispatch(message, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only stop() cancels connection tasks; finishing normally keeps
            # asyncio.streams' connected-callback from logging the cancel.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._drop_subscriber(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
        """One length-prefixed frame body, or ``None`` on clean EOF."""
        try:
            prefix = await reader.readexactly(ctl.FRAME_PREFIX_SIZE)
        except asyncio.IncompleteReadError:
            return None
        return await reader.readexactly(ctl.frame_length(prefix))

    async def _send(self, writer: asyncio.StreamWriter, message) -> None:
        writer.write(ctl.encode_frame(message.encode()))
        await writer.drain()

    async def _dispatch(self, message, writer: asyncio.StreamWriter) -> bool:
        """Handle one decoded message; ``False`` closes the connection."""
        if isinstance(message, ctl.FlowAnnounce):
            try:
                self.state.announce(FlowSpec.from_wire(message))
            except ReproError as exc:
                # Bad spec (unroutable endpoints, unknown protocol id...):
                # reject the announce, keep the connection serving.
                await self._send(writer, ctl.ControlError(ctl.ERR_REJECTED, str(exc)))
                return True
            await self._send(writer, ctl.ControlAck(message.flow_id, ctl.ACK_OK))
            await self._publish_snapshot()
        elif isinstance(message, ctl.FlowFinish):
            known = self.state.finish(message.flow_id)
            code = ctl.ACK_OK if known else ctl.ACK_UNKNOWN_FLOW
            await self._send(writer, ctl.ControlAck(message.flow_id, code))
            if known:
                await self._publish_snapshot()
        elif isinstance(message, ctl.AllocQuery):
            await self._send(writer, self.state.query(message.flow_id))
        elif isinstance(message, ctl.SnapshotSubscribe):
            remaining = message.max_events if message.max_events > 0 else None
            event = ctl.SnapshotEvent(
                seq=self.state.seq, payload=self.state.telemetry_snapshot()
            )
            await self._send(writer, event)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return True
            self._subscribers.append((writer, remaining))
        else:
            await self._send(
                writer,
                ctl.ControlError(
                    ctl.ERR_UNSUPPORTED,
                    f"daemon does not accept {type(message).__name__}",
                ),
            )
            return False
        return True

    # ------------------------------------------------------------------ #
    # Snapshot streaming
    # ------------------------------------------------------------------ #

    def _drop_subscriber(self, writer: asyncio.StreamWriter) -> None:
        self._subscribers = [(w, n) for w, n in self._subscribers if w is not writer]

    async def _publish_snapshot(self) -> None:
        """Stream the current telemetry snapshot to every subscriber."""
        if not self._subscribers:
            return
        event = ctl.SnapshotEvent(
            seq=self.state.seq, payload=self.state.telemetry_snapshot()
        )
        frame = ctl.encode_frame(event.encode())
        kept: List[Tuple[asyncio.StreamWriter, Optional[int]]] = []
        for writer, remaining in self._subscribers:
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                continue
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    continue
            kept.append((writer, remaining))
        self._subscribers = kept


def serve_forever(
    state: ServiceState,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
    max_seconds: Optional[float] = None,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    daemon = ControlDaemon(state, host=host, port=port)
    asyncio.run(
        daemon.serve(
            port_file=port_file,
            max_seconds=max_seconds,
            install_signal_handlers=True,
        )
    )


__all__ = ["ControlDaemon", "serve_forever"]
