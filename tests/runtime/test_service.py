"""Tests of the lock service runtime: wire, transport, client, chaos, SLOs.

The acceptance test at the bottom is the PR's contract: a seeded real-TCP
run under loss + duplication + a partition window + a crash/restart must
report **zero** safety violations from the live monitor, resolve every
acquire (grant or typed timeout), and keep granting after the heal.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.builders import build_fault_tolerant_nodes, build_opencube_nodes
from repro.core.messages import RequestMessage, TokenMessage
from repro.exceptions import ConfigurationError
from repro.runtime import (
    AcquireTimeout,
    CrashPlan,
    LockClient,
    LockServer,
    LockServerConfig,
    RequestRejected,
    RuntimeChaos,
    SLOMonitor,
    parse_address,
    start_servers,
)
from repro.runtime.service import _DedupWindow
from repro.runtime.wire import (
    encode_frame,
    message_to_wire,
    read_frame,
    wire_to_message,
)
from repro.scenarios.spec import NetworkFaultSpec, PartitionSpec


def run(coroutine):
    return asyncio.run(coroutine)


async def stop_all(servers, monitor=None):
    for server in servers.values():
        await server.stop()
    if monitor is not None:
        await monitor.close()


class TestWireAndAddresses:
    def test_message_roundtrip(self):
        for message in (
            RequestMessage(requester=3, source=5, regenerated=True),
            TokenMessage(lender=2, regenerated=False, loan_id=(2, 7)),
            TokenMessage(lender=None),
        ):
            clone = wire_to_message(message_to_wire(message))
            assert type(clone) is type(message)
            assert message_to_wire(clone) == message_to_wire(message)

    def test_frame_roundtrip_over_pipe(self):
        async def scenario():
            reader = asyncio.StreamReader()
            payload = {"type": "proto", "s": 1, "m": {"nested": [1, 2]}}
            reader.feed_data(encode_frame(payload))
            reader.feed_eof()
            assert await read_frame(reader) == payload
            assert await read_frame(reader) is None  # clean EOF
            return True

        assert run(scenario())

    def test_parse_address(self):
        assert parse_address("tcp://127.0.0.1:80") == ("tcp", ("127.0.0.1", 80))
        assert parse_address("unix:///tmp/x.sock") == ("unix", "/tmp/x.sock")
        with pytest.raises(ConfigurationError):
            parse_address("http://nope")
        with pytest.raises(ConfigurationError):
            parse_address("tcp://missing-port")

    def test_dedup_window(self):
        window = _DedupWindow()
        assert window.admit(1) and window.admit(2)
        assert not window.admit(1)  # duplicate below the floor
        assert window.admit(5)  # out-of-order gap opened by a retransmission
        assert not window.admit(5)
        assert window.admit(3) and window.admit(4)
        assert window.floor == 5  # floor caught up through the gap
        assert not window.admit(2)


class TestLockService:
    def test_acquire_release_and_status(self):
        async def scenario():
            servers = await start_servers(build_opencube_nodes(4))
            async with LockClient(servers[2].address, client_id=2) as client:
                rid = await client.acquire(timeout=5.0)
                status = await client.status()
                assert status["holder_rid"] == rid
                assert await client.release(rid) == "released"
            status = servers[2].status()
            assert status["type"] == "status-reply"
            assert json.dumps(status)  # the whole document is JSON-ready
            await stop_all(servers)
            return True

        assert run(scenario())

    def test_locked_context_manager_and_queueing(self):
        async def scenario():
            servers = await start_servers(build_opencube_nodes(4))
            order = []

            async def worker(node_id):
                async with LockClient(servers[node_id].address, client_id=node_id) as c:
                    async with c.locked(timeout=10.0):
                        order.append(node_id)
                        await asyncio.sleep(0.01)

            await asyncio.gather(*(worker(n) for n in (1, 2, 3, 4)))
            await stop_all(servers)
            return order

        assert sorted(run(scenario())) == [1, 2, 3, 4]

    def test_retried_acquire_is_idempotent(self):
        async def scenario():
            servers = await start_servers(build_opencube_nodes(4))
            client = LockClient(servers[3].address, client_id=3)
            rid = await client.acquire(timeout=5.0)
            # A retry of the same rid (e.g. after a lost response) is
            # answered from the holder state, not enqueued again.
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            client._futures[rid] = future
            client._send({"type": "acquire", "rid": rid, "client": 3})
            reply = await asyncio.wait_for(future, 2.0)
            assert reply["type"] == "granted"
            assert await client.release(rid) == "released"
            # Releasing twice is idempotent; releasing a foreign rid is not.
            assert await client.release(rid) == "released"
            with pytest.raises(RequestRejected):
                await client.release(999_000_001)
            await client.close()
            await stop_all(servers)
            return True

        assert run(scenario())

    def test_client_deadline_cancels_server_side(self):
        async def scenario():
            servers = await start_servers(build_opencube_nodes(4))
            holder = LockClient(servers[1].address, client_id=1)
            held = await holder.acquire(timeout=5.0)
            waiter = LockClient(servers[2].address, client_id=2)
            with pytest.raises(AcquireTimeout):
                await waiter.acquire(timeout=0.3)
            await holder.release(held)
            # The cancelled request must not win the lock later: the next
            # acquire through the same node succeeds and the server reports
            # no stuck holder.
            rid = await waiter.acquire(timeout=5.0)
            await waiter.release(rid)
            assert servers[2].status()["queue_depth"] == 0
            await holder.close()
            await waiter.close()
            await stop_all(servers)
            return True

        assert run(scenario())

    def test_crash_is_retryable_and_recovery_serves_again(self):
        async def scenario():
            nodes = build_fault_tolerant_nodes(4, cs_duration_estimate=0.02)
            servers = await start_servers(nodes, max_delay=0.02)
            servers[2].inject_crash()
            client = LockClient(servers[2].address, client_id=2)
            acquire = asyncio.ensure_future(client.acquire(timeout=10.0))
            await asyncio.sleep(0.2)  # a few retries hit the crashed server
            servers[2].inject_recover()
            rid = await acquire
            assert await client.release(rid) == "released"
            assert client.retries >= 1
            await client.close()
            await stop_all(servers)
            return True

        assert run(scenario())

    def test_uds_transport(self, tmp_path):
        async def scenario():
            nodes = build_opencube_nodes(2)
            servers = {
                node_id: LockServer(
                    node,
                    LockServerConfig(
                        node_id=node_id,
                        listen=f"unix://{tmp_path}/node{node_id}.sock",
                    ),
                )
                for node_id, node in nodes.items()
            }
            for server in servers.values():
                await server.listen()
            for node_id, server in servers.items():
                server.config.peers = {
                    other: servers[other].address for other in servers if other != node_id
                }
                await server.start()
            async with LockClient(servers[2].address, client_id=2) as client:
                rid = await client.acquire(timeout=5.0)
                await client.release(rid)
            await stop_all(servers)
            return True

        assert run(scenario())


class TestMonitorSurface:
    def test_metrics_http_endpoint(self):
        async def scenario():
            monitor = SLOMonitor()
            await monitor.start()
            servers = await start_servers(build_opencube_nodes(2), monitor=monitor.address)
            async with LockClient(servers[1].address, client_id=1) as client:
                rid = await client.acquire(timeout=5.0)
                await client.release(rid)
            await asyncio.sleep(0.1)
            scheme, (host, port) = parse_address(monitor.address)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"200 OK" in head
            document = json.loads(body)
            await stop_all(servers, monitor)
            return document

        document = run(scenario())
        assert document["safety"]["ok"] is True
        assert document["events"]["received"] >= 4  # issue/grant/enter/exit

    def test_out_of_order_events_are_reordered(self):
        monitor = SLOMonitor()
        # Two servers' events arrive interleaved out of order within the
        # reorder window: enter(B) is ingested before exit(A) but timestamped
        # after it — no false overlap may be reported.
        monitor.ingest({"type": "event", "e": "enter", "node": 1, "rid": 1, "t": 1.00})
        monitor.ingest({"type": "event", "e": "enter", "node": 2, "rid": 2, "t": 1.03})
        monitor.ingest({"type": "event", "e": "exit", "node": 1, "rid": 1, "t": 1.02})
        monitor.finalize()
        assert monitor.safety.violations == 0
        assert monitor.events_applied == 3


class TestChaosAcceptance:
    def test_safety_holds_and_service_recovers_under_chaos(self):
        """Loss + duplication + partition-and-heal + crash/restart over TCP."""
        n, rounds, seed = 8, 6, 41
        crash_at, recover_at = 0.4, 0.9
        partition = PartitionSpec(start=0.6, heal=1.0, nodes=(5,))

        async def scenario():
            epoch = time.time()
            monitor = SLOMonitor(max_grant_gap=30.0)
            await monitor.start()
            nodes = build_fault_tolerant_nodes(n, cs_duration_estimate=0.05)

            def chaos(node_id):
                return RuntimeChaos(
                    network=NetworkFaultSpec(
                        loss_rate=0.05,
                        dup_rate=0.05,
                        seed=seed,
                        partitions=(partition,),
                    ),
                    crashes=(CrashPlan(node=8, at=crash_at, recover_at=recover_at),),
                    seed=node_id,
                )

            servers = await start_servers(
                nodes, monitor=monitor.address, epoch=epoch, chaos=chaos
            )
            grant_times: list[float] = []
            timeouts = 0

            async def worker(node_id):
                nonlocal timeouts
                async with LockClient(servers[node_id].address, client_id=node_id) as c:
                    for _ in range(rounds):
                        try:
                            rid = await c.acquire(timeout=8.0)
                        except AcquireTimeout:
                            timeouts += 1
                            continue
                        grant_times.append(time.time() - epoch)
                        await asyncio.sleep(0.01)
                        await c.release(rid)

            await asyncio.gather(*(worker(node_id) for node_id in sorted(nodes)))
            await asyncio.sleep(0.5)  # let the last events reach the monitor
            monitor.finalize()
            report = monitor.report()
            counters = {
                key: sum(s.status()[key] for s in servers.values())
                for key in ("retransmits", "timer_deferrals", "duplicates_dropped")
            }
            for key in ("events_emitted", "event_frames", "dropped"):
                counters[key] = sum(s.status()["monitor_link"][key] for s in servers.values())
            # Sampled traces survive chaos: clients trace every request by
            # default, so the monitor's /traces endpoint must have assembled
            # at least one completed journey.
            scheme, (host, port) = parse_address(monitor.address)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /traces HTTP/1.0\r\n\r\n")
            raw = await reader.read()
            writer.close()
            _head, _, body = raw.partition(b"\r\n\r\n")
            traces = json.loads(body)
            await stop_all(servers, monitor)
            return report, grant_times, timeouts, counters, traces

        report, grant_times, timeouts, counters, traces = run(scenario())
        # 1. Zero safety violations, live from the online checker.
        assert report["safety"]["violations"] == 0, report["alerts"]
        # 2. Every acquire resolved: a grant or a typed AcquireTimeout.
        assert len(grant_times) + timeouts == n * rounds
        assert len(grant_times) >= n * rounds // 2  # chaos cannot starve the service
        # 3. Grants resume after the heal and the crash recovery.
        assert max(grant_times) > max(partition.heal, recover_at)
        # 4. The chaos actually bit: the reliability layer repaired loss and
        #    dropped duplicates, and the silence gate deferred regeneration.
        assert counters["retransmits"] > 0
        assert counters["duplicates_dropped"] > 0
        assert counters["timer_deferrals"] > 0
        # 5. Batched monitor events are all accounted for: applied by the
        #    monitor or counted as dropped by the sender, in fewer frames.
        assert counters["events_emitted"] == report["events"]["applied"] + counters["dropped"]
        assert report["events"]["malformed"] == 0
        assert 0 < counters["event_frames"] < counters["events_emitted"]
        # 6. The trace surface works under chaos: at least one completed
        #    sampled trace with its issue and grant timestamps assembled.
        completed = traces["completed"]
        assert len(completed) >= 1
        assert all(trace["trace_id"] for trace in completed)
        assert any(
            trace["issued_at"] is not None and trace["granted_at"] is not None
            for trace in completed
        )
