"""Transport layer of the lock service: framed links over TCP and UDS.

Addresses are URLs: ``tcp://host:port`` or ``unix:///path/to.sock``.  Two
building blocks sit on top of :mod:`repro.runtime.wire`'s framing:

* :class:`PeerLink` — a persistent *outbound* link with automatic reconnect
  (jittered backoff).  ``send()`` appends to a bounded frame buffer and one
  ``call_soon`` flush per loop tick encodes everything buffered and hands it
  to the socket as **one write**: the frames a handler produces together
  (an ack and the protocol reply, say) cost one syscall, and the receiver's
  reader task drains them in one wake-up.  Order on a link is the order of
  the ``send()`` calls.  ``sent`` counts frames at that hand-off; frames not
  yet handed to a socket wait in the buffer across a reconnect.
  Backpressure is the socket's: once a write leaves the transport's buffer
  above its high-water mark nothing more is written until one ``drain()``
  returns, so a slow peer fills the bounded buffer instead of growing an
  unbounded one.  When the buffer is full the *newest* frame is dropped
  and counted, and ``close()`` counts whatever it could not hand over —
  the protocol layer above (fault-tolerant algorithm, fire-and-forget
  telemetry events) is built to tolerate loss, and a visible counter beats
  a hidden out-of-memory.
* :class:`FrameServer` — an inbound listener dispatching each connection's
  frames to an async handler.  When an ``http_handler`` is provided the
  listener sniffs the first bytes of a connection: ``GET `` switches to a
  minimal HTTP/1.0 responder (the ``/metrics``-style status surface), any
  other prefix is treated as a frame length.  One port serves both.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Awaitable, Callable

from repro.exceptions import ConfigurationError, ProtocolError
from repro.runtime.wire import _LENGTH, encode_frame, read_frame

__all__ = ["parse_address", "PeerLink", "FrameConnection", "FrameServer"]


def parse_address(address: str) -> tuple[str, Any]:
    """Parse ``tcp://host:port`` or ``unix://path``; returns ``(scheme, target)``."""
    if address.startswith("tcp://"):
        rest = address[len("tcp://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise ConfigurationError(f"tcp address needs host:port, got {address!r}")
        return "tcp", (host or "127.0.0.1", int(port))
    if address.startswith("unix://"):
        path = address[len("unix://"):]
        if not path:
            raise ConfigurationError(f"unix address needs a path, got {address!r}")
        return "unix", path
    raise ConfigurationError(
        f"unsupported address {address!r} (use tcp://host:port or unix://path)"
    )


async def _open_connection(address: str):
    scheme, target = parse_address(address)
    if scheme == "tcp":
        return await asyncio.open_connection(target[0], target[1])
    return await asyncio.open_unix_connection(target)


class PeerLink:
    """Reconnecting outbound frame link (see module docstring).

    Args:
        address: peer address URL.
        max_queue: bounded outbound buffer (frames).
        reconnect_min / reconnect_max: backoff window between connection
            attempts; actual delays are jittered within it.
        seed: jitter RNG seed (determinism in tests).
    """

    def __init__(
        self,
        address: str,
        *,
        max_queue: int = 1024,
        reconnect_min: float = 0.05,
        reconnect_max: float = 1.0,
        seed: int = 0,
    ) -> None:
        parse_address(address)  # fail fast on malformed addresses
        self.address = address
        self.max_queue = max_queue
        self.reconnect_min = reconnect_min
        self.reconnect_max = reconnect_max
        self.sent = 0
        self.dropped = 0
        self.reconnects = 0
        self._rng = random.Random(seed)
        #: Frames accepted by :meth:`send` and not yet handed to a socket.
        self._buffer: list[dict[str, Any]] = []
        #: A flush is already on its way: scheduled on the loop, or owed by
        #: the connection task (no socket yet) or by the drain task.
        self._flush_pending = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._high_water = 0
        #: Exists while the socket's write buffer is above its high-water mark.
        self._drain_task: asyncio.Task | None = None
        self._closed = False

    def start(self) -> None:
        """Start the connection task (idempotent)."""
        if self._task is None:
            self._loop = asyncio.get_running_loop()
            self._task = self._loop.create_task(self._run())

    def send(self, payload: dict[str, Any]) -> bool:
        """Buffer one frame; returns False (and counts) when the buffer is full."""
        if self._closed or len(self._buffer) >= self.max_queue:
            self.dropped += 1
            return False
        if self._task is None:
            self.start()
        self._buffer.append(payload)
        if not self._flush_pending:
            self._flush_pending = True
            self._loop.call_soon(self._flush)
        return True

    @property
    def backlog(self) -> int:
        """Frames waiting in the outbound buffer."""
        return len(self._buffer)

    def _flush(self) -> None:
        """Hand every buffered frame to the socket as one write."""
        writer = self._writer
        if writer is None or self._drain_task is not None or writer.transport.is_closing():
            # Stays pending: the next connection, or the end of the drain,
            # flushes.  A closing transport wakes the connection task.
            return
        self._flush_pending = False
        frames = self._buffer
        if not frames:
            return
        chunks = []
        for payload in frames:
            try:
                chunks.append(encode_frame(payload))
            except ProtocolError:
                self.dropped += 1  # over MAX_FRAME: no socket will ever take it
        frames.clear()
        self.sent += len(chunks)
        writer.write(b"".join(chunks))
        if writer.transport.get_write_buffer_size() > self._high_water:
            # Real backpressure: the peer is not reading.  Nothing more is
            # written until one drain() returns; meanwhile frames pile up in
            # the bounded buffer and the newest are dropped and counted.
            self._flush_pending = True
            self._drain_task = self._loop.create_task(self._drain(writer))

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except OSError:
            return  # the connection task sees the same loss, cleans up and reconnects
        self._drain_task = None
        self._flush()

    async def _run(self) -> None:
        while True:
            writer = None
            try:
                reader, writer = await _open_connection(self.address)
                self._high_water = writer.transport.get_write_buffer_limits()[1]
                self._writer = writer
                self._flush()  # whatever was buffered while there was no socket
                # Nothing is expected back on an outbound link; the read only
                # wakes this task when the peer closes or the socket fails.
                while await reader.read(4096):
                    pass
            except OSError:
                pass
            finally:
                self._writer = None
                if self._drain_task is not None:
                    self._drain_task.cancel()
                    self._drain_task = None
                if writer is not None:
                    writer.close()  # after the bytes already written
            self.reconnects += 1
            await asyncio.sleep(self._rng.uniform(self.reconnect_min, self.reconnect_max))

    async def close(self) -> None:
        """Flush best-effort, count what no socket took, stop the connection task."""
        if self._closed:
            return
        self._closed = True
        if self._drain_task is None:
            self._flush()
        else:
            # A peer that stopped reading would hold a graceful close open
            # for ever; drop the connection instead.  (A drain task only
            # exists while there is a writer: ``_run`` clears both together.)
            self._writer.transport.abort()
        self.dropped += len(self._buffer)
        self._buffer.clear()
        tasks = [task for task in (self._drain_task, self._task) if task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._task = None


class FrameConnection:
    """One accepted inbound connection; handlers reply through :meth:`send`."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.closed = False

    def send(self, payload: dict[str, Any]) -> None:
        """Queue one reply frame on this connection (fire-and-forget)."""
        if self.closed:
            return
        try:
            self._writer.write(encode_frame(payload))
        except Exception:
            self.closed = True


FrameHandler = Callable[[dict[str, Any], FrameConnection], Awaitable[None]]
#: ``(path, headers)`` -> ``(status, document)``.  Headers arrive with
#: lower-cased names.  A dict document is served as JSON, a str as
#: ``text/plain`` (Prometheus exposition format).
HttpHandler = Callable[[str, "dict[str, str]"], "tuple[int, Any]"]


class FrameServer:
    """Inbound frame listener over TCP or UDS, with optional HTTP sniffing."""

    def __init__(
        self,
        address: str,
        handler: FrameHandler,
        *,
        http_handler: HttpHandler | None = None,
        on_disconnect: Callable[[FrameConnection], None] | None = None,
    ) -> None:
        self.address = address
        self.handler = handler
        self.http_handler = http_handler
        self.on_disconnect = on_disconnect
        self.frames_received = 0
        self.http_requests = 0
        self.protocol_errors = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        scheme, target = parse_address(self.address)
        if scheme == "tcp":
            self._server = await asyncio.start_server(self._client, target[0], target[1])
            host, port = self._server.sockets[0].getsockname()[:2]
            self.address = f"tcp://{host}:{port}"  # resolve ephemeral port 0
        else:
            self._server = await asyncio.start_unix_server(self._client, target)

    async def _client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn = FrameConnection(writer)
        try:
            head = None
            if self.http_handler is not None:
                head = await reader.readexactly(_LENGTH.size)
                if head == b"GET ":
                    await self._http(head, reader, writer)
                    return
            while True:
                # The sniffed bytes are the first frame's length prefix.
                payload = await read_frame(reader, head)
                head = None
                if payload is None:
                    break
                self.frames_received += 1
                await self.handler(payload, conn)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away mid-frame: normal under chaos
        except asyncio.CancelledError:
            pass  # listener closing while the connection was idle
        except ProtocolError:
            self.protocol_errors += 1
        finally:
            conn.closed = True
            if self.on_disconnect is not None:
                self.on_disconnect(conn)
            writer.close()

    async def _http(self, head: bytes, reader, writer) -> None:
        """Minimal HTTP/1.0 responder for the status surface."""
        self.http_requests += 1
        line = head + await reader.readline()
        parts = line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        # Collect the header block (lower-cased names) — content negotiation
        # (e.g. ``Accept: text/plain`` for Prometheus exposition) needs it.
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, sep, value = header.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        assert self.http_handler is not None
        status, document = self.http_handler(path, headers)
        if isinstance(document, str):
            body = document.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = {200: "OK", 404: "Not Found", 406: "Not Acceptable"}.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
