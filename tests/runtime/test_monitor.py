"""SLO monitor surface tests: health recovery, Prometheus exposition, traces.

The regression pinned here: ``/healthz`` must report *active* conditions.
An earlier implementation computed ``ok = safety.ok and not alerts``, so a
single transient grant-gap breach left the service permanently unhealthy —
the alert log is history, health is now.
"""

from __future__ import annotations

import asyncio
import json
import random

from repro.runtime import LockClient, SLOMonitor, parse_address, start_servers
from repro.core.builders import build_opencube_nodes


def run(coroutine):
    return asyncio.run(coroutine)


def event(e, node=1, rid=0, t=0.0, **extra):
    doc = {"type": "event", "e": e, "node": node, "rid": rid, "t": t}
    doc.update(extra)
    return doc


async def http_get(address, path, accept=None):
    scheme, (host, port) = parse_address(address)
    reader, writer = await asyncio.open_connection(host, port)
    request = f"GET {path} HTTP/1.0\r\n"
    if accept is not None:
        request += f"Accept: {accept}\r\n"
    writer.write(request.encode() + b"\r\n")
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


class TestHealthzRecovery:
    def test_transient_gap_breach_recovers(self):
        """A stall trips /healthz while open, and clears at the next grant."""
        monitor = SLOMonitor(max_grant_gap=1.0, reorder_window=0.0)
        monitor.ingest(event("issue", rid=1, t=0.0))
        # Nothing granted for 5s while rid=1 waits: actively stalled.
        monitor.ingest(event("issue", rid=2, node=2, t=5.0))
        stalled = monitor.healthz()
        assert stalled["stalled"] is True
        assert stalled["ok"] is False
        assert stalled["current_grant_gap"] >= 5.0
        # The grant lands: the stall is over, but the breach was alerted.
        monitor.ingest(event("grant", rid=1, t=5.5))
        monitor.ingest(event("grant", rid=2, node=2, t=5.6))
        recovered = monitor.healthz()
        assert recovered["stalled"] is False
        assert recovered["ok"] is True, "historical alerts must not poison health"
        assert recovered["alerts"] >= 1  # the breach is still on record
        assert any(a["kind"] == "grant-gap-breach" for a in monitor.alerts)

    def test_gap_alert_fires_once_per_high_water(self):
        monitor = SLOMonitor(max_grant_gap=1.0, reorder_window=0.0)
        monitor.ingest(event("issue", rid=1, t=0.0))
        monitor.ingest(event("grant", rid=1, t=3.0))  # 3s gap: alert
        monitor.ingest(event("issue", rid=2, t=3.0))
        monitor.ingest(event("grant", rid=2, t=5.0))  # 2s gap: old news
        monitor.ingest(event("issue", rid=3, t=5.0))
        monitor.ingest(event("grant", rid=3, t=10.0))  # 5s gap: new record
        breaches = [a for a in monitor.alerts if a["kind"] == "grant-gap-breach"]
        assert len(breaches) == 2

    def test_healthz_over_http(self):
        async def scenario():
            monitor = SLOMonitor(max_grant_gap=30.0)
            await monitor.start()
            servers = await start_servers(build_opencube_nodes(2), monitor=monitor.address)
            async with LockClient(servers[1].address, client_id=1) as client:
                rid = await client.acquire(timeout=5.0)
                await client.release(rid)
            await asyncio.sleep(0.1)
            head, body = await http_get(monitor.address, "/healthz")
            for server in servers.values():
                await server.stop()
            await monitor.close()
            return head, json.loads(body)

        head, document = run(scenario())
        assert "200 OK" in head
        assert document["ok"] is True
        assert document["stalled"] is False


class TestPrometheusExposition:
    def test_content_negotiation_sans_io(self):
        monitor = SLOMonitor(reorder_window=0.0)
        monitor.ingest(event("issue", rid=1, t=0.0))
        monitor.ingest(event("grant", rid=1, t=0.1))
        status, document = monitor._on_http("/metrics", {"accept": "text/plain"})
        assert status == 200
        assert isinstance(document, str)
        assert "# TYPE mutex_safety_ok gauge" in document
        assert "mutex_requests_granted_total 1" in document
        # JSON stays the default when no Accept header narrows it.
        status, document = monitor._on_http("/metrics", {})
        assert status == 200
        assert isinstance(document, dict)
        assert document["safety"]["ok"] is True

    def test_prometheus_over_http(self):
        async def scenario():
            monitor = SLOMonitor(reorder_window=0.0)
            await monitor.start()
            monitor.ingest(event("issue", rid=7, t=0.0))
            head, body = await http_get(
                monitor.address, "/metrics", accept="text/plain"
            )
            await monitor.close()
            return head, body.decode()

        head, body = run(scenario())
        assert "200 OK" in head
        assert "text/plain; version=0.0.4" in head
        assert "mutex_requests_issued_total 1" in body
        for line in body.strip().splitlines():
            assert line.startswith("#") or len(line.split()) == 2


class TestTraceAssembly:
    def test_full_journey_from_ingested_events(self):
        monitor = SLOMonitor(reorder_window=0.0)
        tr = "00deadbeef00cafe"
        monitor.ingest(event("issue", rid=9, t=1.0, tr=tr))
        monitor.ingest(event("send", t=1.01, tr=tr, dest=3, kind="RequestMessage"))
        monitor.ingest(event("send", node=3, t=1.02, tr=tr, dest=1, kind="TokenMessage"))
        monitor.ingest(event("grant", rid=9, t=1.05, tr=tr))
        monitor.ingest(event("enter", rid=9, t=1.05, tr=tr))
        monitor.ingest(event("exit", rid=9, t=1.2, tr=tr))
        traces = monitor.traces()
        assert traces["active"] == 0
        (trace,) = traces["completed"]
        assert trace["trace_id"] == tr
        assert trace["status"] == "done"
        assert trace["issued_at"] == 1.0
        assert trace["granted_at"] == 1.05
        assert trace["exited_at"] == 1.2
        kinds = [hop["kind"] for hop in trace["hops"]]
        assert kinds == ["RequestMessage", "TokenMessage"]
        assert json.dumps(traces)  # the /traces body is JSON-ready

    def test_unknown_tail_and_untraced_events_are_ignored(self):
        monitor = SLOMonitor(reorder_window=0.0)
        monitor.ingest(event("exit", rid=1, t=0.5, tr="feed0000feed0000"))
        monitor.ingest(event("issue", rid=2, t=0.6))  # no tr: not assembled
        assert monitor.traces() == {"completed": [], "active": 0}
        assert monitor.events_applied == 2  # still counted by the checkers

    def test_completed_traces_are_bounded(self):
        monitor = SLOMonitor(reorder_window=0.0, max_traces=2)
        for i in range(5):
            tr = f"{i:016x}"
            monitor.ingest(event("issue", rid=i, t=float(i), tr=tr))
            monitor.ingest(event("exit", rid=i, t=float(i) + 0.1, tr=tr))
        completed = monitor.traces()["completed"]
        assert len(completed) == 2
        assert [t["rid"] for t in completed] == [3, 4]  # newest retained


class TestEventBatches:
    """Servers ship events in ``events`` frames; the monitor must not care."""

    @staticmethod
    def recorded():
        """Three nodes taking turns, traced, with a cancel, a crash, a grant
        gap past the threshold and one real overlap — so verdicts, alerts and
        traces all have something to disagree about.  Timestamps are distinct:
        ties are ordered by arrival, which batching does not promise to keep."""
        events, t = [], 0.0

        def emit(e, node, rid, step=0.003, **extra):
            nonlocal t
            t = round(t + step, 6)
            events.append({"e": e, "node": node, "rid": rid, "t": t, **extra})

        for round_ in range(12):
            node = 1 + round_ % 3
            rid, tr = 100 + round_, f"{round_:016x}"
            emit("issue", node, rid, tr=tr)
            emit("send", node, 0, tr=tr, dest=1 + (node % 3), kind="RequestMessage")
            emit("send", 1 + (node % 3), 0, tr=tr, dest=node, kind="TokenMessage")
            emit("grant", node, rid, step=1.5 if round_ == 7 else 0.003, tr=tr)
            emit("enter", node, rid, step=0.000001, tr=tr)
            if round_ == 4:
                emit("enter", 3, 999)  # overlap: a safety violation
                emit("exit", 3, 999)
            emit("exit", node, rid, tr=tr)
        emit("issue", 2, 500, tr="c" * 16)
        emit("cancel", 2, 500, tr="c" * 16)
        emit("issue", 3, 501, tr="d" * 16)
        emit("crash", 3, 0)
        emit("recover", 3, 0)
        return events

    @staticmethod
    def verdict(frames):
        monitor = SLOMonitor(max_grant_gap=1.0)

        async def feed():
            for frame in frames:
                await monitor._on_frame(frame, None)

        run(feed())
        assert monitor.events_applied < monitor.events_received  # the window holds a tail
        monitor.finalize()
        return monitor.report(), monitor.healthz(), monitor.traces()

    def test_singles_batches_and_shuffled_batches_agree(self):
        events = self.recorded()
        singles = [{"type": "event", **e} for e in events]
        batches = [
            {"type": "events", "batch": events[i:i + 16]} for i in range(0, len(events), 16)
        ]
        # Batches of several servers interleave on arrival: shuffle inside
        # blocks that span 6 x 3 ms, well inside the 50 ms reorder window
        # (the block holding the 1.5 s gap is not inside it and stays put).
        rng = random.Random(7)
        shuffled, moved = [], 0
        for i in range(0, len(events), 6):
            block = events[i:i + 6]
            if block[-1]["t"] - block[0]["t"] < 0.025:
                rng.shuffle(block)
                moved += block != events[i:i + 6]
            shuffled.append({"type": "events", "batch": block})
        assert moved >= 10

        expected = self.verdict(singles)
        report = expected[0]
        assert report["safety"]["violations"] == 1
        assert {a["kind"] for a in report["alerts"]} == {"safety-violation", "grant-gap-breach"}
        assert report["events"]["applied"] == len(events)
        assert len(expected[2]["completed"]) >= 12
        assert self.verdict(batches) == expected
        assert self.verdict(shuffled) == expected

    def test_malformed_batches_are_counted(self):
        monitor = SLOMonitor(reorder_window=0.0)

        async def feed():
            await monitor._on_frame({"type": "events"}, None)
            await monitor._on_frame({"type": "events", "batch": {"e": "issue"}}, None)
            await monitor._on_frame(
                {"type": "events", "batch": [event("issue", rid=1, t=1.0), 7, {"e": "issue"}]},
                None,
            )
            await monitor._on_frame({"type": "bogus"}, None)

        run(feed())
        assert monitor.events_received == 1 and monitor.events_applied == 1
        assert monitor.malformed_events == 5

    def test_server_batches_reach_the_monitor(self):
        """End to end: fewer frames than events, none lost, lone events still ``event``."""

        async def scenario():
            monitor = SLOMonitor()
            await monitor.start()
            kinds = []
            on_frame = monitor._on_frame

            async def spy(frame, conn):
                kinds.append(frame["type"])
                await on_frame(frame, conn)

            monitor._server.handler = spy
            servers = await start_servers(build_opencube_nodes(2), monitor=monitor.address)
            async with LockClient(servers[1].address, client_id=1) as client:
                for _ in range(20):
                    await client.release(await client.acquire(timeout=5.0))
                await asyncio.sleep(0.05)
                servers[1].inject_crash()  # a lone event, flushed at once
                await asyncio.sleep(0.05)
            links = [server.status()["monitor_link"] for server in servers.values()]
            monitor.finalize()
            report = monitor.report()
            for server in servers.values():
                await server.stop()
            await monitor.close()
            return kinds, links, report

        kinds, links, report = run(scenario())
        emitted = sum(link["events_emitted"] for link in links)
        frames = sum(link["event_frames"] for link in links)
        assert emitted == 20 * 4 + 1  # issue, grant, enter, exit per round + the crash
        assert sum(link["dropped"] for link in links) == 0
        assert report["events"]["applied"] == emitted and report["events"]["malformed"] == 0
        assert frames == len(kinds) < emitted
        assert kinds[-1] == "event" and "events" in kinds
