"""Transport tests: what a ``PeerLink`` keeps while it batches its writes.

``send()`` buffers and one flush per loop tick hands the buffer to the socket
as one write.  Pinned here: frame order, ``sent`` counted per frame, the
bounded buffer with drop-newest under real backpressure, frames surviving a
reconnect, ``close()`` counting what no socket took, and the listener's
first-frame path decoding through the same code as every other frame.
"""

from __future__ import annotations

import asyncio
import shutil
import struct
import tempfile

import pytest

from repro.core.builders import build_opencube_nodes
from repro.runtime import FrameServer, LockClient, PeerLink, RuntimeChaos, start_servers
from repro.runtime.faults import DUPLICATE
from repro.runtime.wire import read_frame
from repro.scenarios.spec import NetworkFaultSpec


def run(coroutine):
    return asyncio.run(coroutine)


async def until(condition, timeout=10.0):
    """Poll ``condition`` on the loop; fail the test when it never holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


@pytest.fixture
def uds():
    """A short socket path (``sun_path`` holds 108 bytes; pytest's tmp_path is long)."""
    directory = tempfile.mkdtemp(prefix="plink-", dir="/tmp")
    yield f"unix://{directory}/l.sock"
    shutil.rmtree(directory, ignore_errors=True)


class Listener:
    """A raw frame listener the test controls: it can stall and it can hang up.

    ``FrameServer.close()`` leaves accepted connections open; the reconnect
    and backpressure tests need a peer that drops them or stops reading.
    """

    def __init__(self, address: str) -> None:
        self.path = address[len("unix://"):]
        self.frames: list[dict] = []
        self.reading = asyncio.Event()
        self.reading.set()
        self._writers: list[asyncio.StreamWriter] = []
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(self._client, self.path)

    async def _client(self, reader, writer) -> None:
        self._writers.append(writer)
        try:
            while True:
                await self.reading.wait()
                frame = await read_frame(reader)
                if frame is None:
                    break
                self.frames.append(frame)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for writer in self._writers:
            writer.close()


class AlwaysDuplicate(RuntimeChaos):
    def on_send(self, sender, dest, now):
        self.duplicated += 1
        return DUPLICATE


class TestPeerLinkBatching:
    def test_sends_in_one_tick_share_one_write_in_order(self, monkeypatch):
        k = 25

        async def scenario():
            received = []

            async def handler(frame, conn):
                received.append(frame["i"])

            server = FrameServer("tcp://127.0.0.1:0", handler)
            await server.start()
            link = PeerLink(server.address)
            link.send({"i": -1})  # connects the link
            await until(lambda: received == [-1])

            writes = []
            original = asyncio.StreamWriter.write
            monkeypatch.setattr(
                asyncio.StreamWriter, "write",
                lambda self, data: (writes.append(len(data)), original(self, data))[1],
            )
            for i in range(k):  # one loop tick: no await in between
                assert link.send({"i": i})
            assert link.backlog == k and link.sent == 1  # nothing written yet
            await until(lambda: len(received) == k + 1)
            await link.close()
            await server.close()
            return received, writes, link

        received, writes, link = run(scenario())
        assert received == [-1, *range(k)]
        assert len(writes) == 1, "k frames buffered in one tick must be one socket write"
        assert link.sent == k + 1 and link.dropped == 0 and link.backlog == 0

    def test_same_payload_sent_twice_arrives_twice(self):
        """A chaos DUPLICATE verdict is two ``send()`` calls of one dict."""

        async def scenario():
            def chaos(node_id):
                return AlwaysDuplicate(network=NetworkFaultSpec(dup_rate=0.5), seed=node_id)

            servers = await start_servers(build_opencube_nodes(2), chaos=chaos)
            async with LockClient(servers[2].address, client_id=2) as client:
                for _ in range(3):
                    await client.release(await client.acquire(timeout=5.0))
            async with LockClient(servers[1].address, client_id=1) as client:
                await client.release(await client.acquire(timeout=5.0))
            await asyncio.sleep(0.05)
            statuses = [server.status() for server in servers.values()]
            for server in servers.values():
                await server.stop()
            return statuses

        statuses = run(scenario())
        for status in statuses:
            verdicts = status["chaos"]["duplicated_messages"]
            assert verdicts > 0
            assert sum(link["sent"] for link in status["links"].values()) == 2 * verdicts
        # Every protocol frame arrived twice and was admitted once.
        assert sum(status["duplicates_dropped"] for status in statuses) > 0
        assert sum(status["node_errors"] for status in statuses) == 0


class TestPeerLinkBackpressure:
    def test_stalled_peer_bounds_the_buffer_then_resumes(self, uds):
        max_queue = 32
        blob = "x" * 16384

        async def scenario():
            listener = Listener(uds)
            await listener.start()
            link = PeerLink(uds, max_queue=max_queue)
            link.send({"i": -1})
            await until(lambda: len(listener.frames) == 1)

            listener.reading.clear()  # the peer stops reading
            sent_when_full = None
            accepted = []
            for i in range(4000):
                if link.send({"i": i, "blob": blob}):
                    accepted.append(i)
                assert link.backlog <= max_queue
                if link.dropped and sent_when_full is None:
                    sent_when_full = link.sent
                if link.dropped >= 10:
                    break
                await asyncio.sleep(0)  # let the flush (and the drain task) run
            assert link.dropped >= 10, "a peer that never reads must fill the buffer"
            assert link.backlog == max_queue
            # No flush while the socket is above its high-water mark.
            assert link.sent == sent_when_full

            listener.reading.set()  # the peer reads again
            await until(lambda: link.backlog == 0)
            assert link.send({"i": "last"})
            await until(lambda: listener.frames[-1]["i"] == "last")
            await link.close()
            await listener.stop()
            return listener.frames, accepted, i + 1, link

        frames, accepted, attempted, link = run(scenario())
        assert len(frames) == link.sent  # every frame handed to the socket arrived
        # Drop-newest: every accepted frame arrives, in order; refused ones never do.
        assert [frame["i"] for frame in frames[1:-1]] == accepted
        assert len(accepted) + link.dropped == attempted

    def test_close_counts_frames_no_socket_took(self, uds):
        """Regression: a full buffer used to be discarded uncounted."""

        async def scenario():
            link = PeerLink(uds, max_queue=8, reconnect_min=0.01, reconnect_max=0.02)
            accepted = [link.send({"i": i}) for i in range(12)]  # nobody listens
            await asyncio.sleep(0.05)
            assert link.backlog == 8 and link.sent == 0
            await link.close()
            assert not link.send({"i": "late"})
            return accepted, link

        accepted, link = run(scenario())
        assert accepted == [True] * 8 + [False] * 4
        assert link.sent == 0
        assert link.dropped == 4 + 8 + 1  # refused when full, lost at close, sent after close
        assert link.reconnects >= 1


class TestPeerLinkReconnect:
    def test_frames_buffered_across_a_listener_restart_are_delivered(self, uds):
        async def scenario():
            first = Listener(uds)
            await first.start()
            link = PeerLink(uds, reconnect_min=0.01, reconnect_max=0.02)
            link.send({"i": 0})
            await until(lambda: len(first.frames) == 1)
            await first.stop()  # hangs up on the link
            await until(lambda: link.reconnects >= 1)

            for i in (1, 2, 3):
                assert link.send({"i": i})
            await asyncio.sleep(0.05)  # several refused connection attempts
            assert link.sent == 1 and link.backlog == 3

            second = Listener(uds)
            await second.start()
            await until(lambda: len(second.frames) == 3)
            await link.close()
            await second.stop()
            return second.frames, link

        frames, link = run(scenario())
        assert [frame["i"] for frame in frames] == [1, 2, 3]
        assert link.sent == 4 and link.dropped == 0


class TestFirstFrame:
    @pytest.mark.parametrize("sniffing", [False, True])
    def test_malformed_first_frame_is_a_counted_protocol_error(self, sniffing):
        """Regression: the sniffing listener decoded the first frame with its
        own ``json.loads`` and let ``JSONDecodeError`` escape uncounted."""

        async def scenario():
            async def handler(frame, conn):
                raise AssertionError("a malformed frame must not reach the handler")

            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            server = FrameServer(
                "tcp://127.0.0.1:0", handler,
                http_handler=(lambda path, headers: (200, {})) if sniffing else None,
            )
            await server.start()
            host, port = server.address[len("tcp://"):].rsplit(":", 1)
            for body in (b"{not json", b"\xff\xfe\x00", b"[1,2]"):
                reader, writer = await asyncio.open_connection(host, int(port))
                writer.write(struct.pack(">I", len(body)) + body)
                assert await reader.read() == b""  # the listener hangs up
                writer.close()
            await server.close()
            return server, unhandled

        server, unhandled = run(scenario())
        assert server.protocol_errors == 3
        assert server.frames_received == 0
        assert unhandled == []

    def test_sniffed_first_frame_is_delivered(self):
        async def scenario():
            received = []

            async def handler(frame, conn):
                received.append(frame)

            server = FrameServer(
                "tcp://127.0.0.1:0", handler, http_handler=lambda path, headers: (200, {})
            )
            await server.start()
            link = PeerLink(server.address)
            for i in range(3):
                link.send({"i": i})
            await until(lambda: len(received) == 3)
            await link.close()
            await server.close()
            return received, server

        received, server = run(scenario())
        assert [frame["i"] for frame in received] == [0, 1, 2]
        assert server.frames_received == 3 and server.protocol_errors == 0
