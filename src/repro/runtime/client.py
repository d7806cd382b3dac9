"""Retrying lock-service client.

A :class:`LockClient` talks to one :class:`~repro.runtime.service.LockServer`
(its *home* node) over the framed transport and turns the service's
request/response protocol into three safe operations:

* :meth:`~LockClient.acquire` — request the critical section with an
  optional **deadline**.  Transient failures (connection refused/reset, a
  crashed server) are retried with jittered exponential backoff, always
  re-sending the **same request id**: the server keeps per-request lifecycle
  state, so a retry after a lost response is answered from that state and a
  retried acquire can never enqueue — let alone enter — the critical
  section twice.  At the deadline the client sends a best-effort ``cancel``
  (so the server can withdraw or auto-release the request) and raises
  :class:`~repro.runtime.errors.AcquireTimeout`; when the retry budget runs
  out first it raises :class:`~repro.runtime.errors.RetryExhausted`.
* :meth:`~LockClient.release` — returns ``"released"`` normally and
  ``"lost"`` when the grant died with a server crash (the CS was already
  surrendered; the caller holds nothing).
* :meth:`~LockClient.locked` — ``async with client.locked(timeout=...)``
  context manager pairing the two.

Every typed failure is a :class:`~repro.runtime.errors.LockServiceError`
subclass; none of them leave the lock in an ambiguous state.
"""

from __future__ import annotations

import asyncio
import random
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Any, AsyncIterator

from repro.runtime.errors import (
    AcquireTimeout,
    RequestRejected,
    RetryExhausted,
    ServiceUnavailable,
)
from repro.runtime.transport import _open_connection, parse_address
from repro.runtime.wire import encode_frame, read_frame
from repro.telemetry.tracing import sample_request, trace_id_for

__all__ = ["RetryPolicy", "LockClient"]

#: Response errors worth retrying (the condition is transient by design).
_RETRYABLE = frozenset({"crashed"})


def _expire(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def _reply(future: asyncio.Future, timeout: float | None) -> dict[str, Any]:
    """Await a reply future; it fails with ``TimeoutError`` after ``timeout`` seconds.

    One ``call_later`` handle per call instead of ``asyncio.wait_for``'s
    waiter future and callbacks.
    """
    if timeout is None:
        return await future
    handle = asyncio.get_running_loop().call_later(timeout, _expire, future)
    try:
        return await future
    finally:
        handle.cancel()


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff schedule.

    ``delay(attempt)`` for attempt 1, 2, 3… is ``base_delay * multiplier**
    (attempt-1)`` capped at ``max_delay``, scaled by a uniform jitter factor
    in ``[1-jitter, 1+jitter]`` — the standard thundering-herd breaker.
    """

    max_attempts: int = 8
    base_delay: float = 0.05
    max_delay: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        return raw * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)


class LockClient:
    """Deadline- and retry-aware client for one lock server.

    Args:
        address: the home server's address (``tcp://`` / ``unix://``).
        client_id: small integer identity; request ids are minted as
            ``client_id * 1_000_000 + counter`` so ids are globally unique
            without coordination.
        retry: backoff schedule for transient failures.
        seed: jitter RNG seed (determinism in tests).
        trace_sample: head-sampling rate for causal tracing.  A sampled
            acquire mints a deterministic trace id (pure function of
            ``(client_id, rid)`` — see :func:`repro.telemetry.tracing`) and
            attaches it as ``"tr"`` on the acquire/release/cancel frames;
            the server propagates it across peer hops and the monitor's
            ``/traces`` endpoint reconstructs the journey.  ``1.0`` traces
            everything (cheap: one hash per acquire), ``0.0`` disables.
    """

    def __init__(
        self,
        address: str,
        client_id: int,
        *,
        retry: RetryPolicy | None = None,
        seed: int | None = None,
        trace_sample: float = 1.0,
    ) -> None:
        parse_address(address)  # fail fast
        self.address = address
        self.client_id = client_id
        self.retry = retry if retry is not None else RetryPolicy()
        self.trace_sample = trace_sample
        self.traces_sampled = 0
        self._trace_ids: dict[int, str] = {}
        self.retries = 0
        self.reconnects = 0
        self._rng = random.Random(client_id if seed is None else seed)
        self._counter = 0
        self._reader_task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._status_future: asyncio.Future | None = None
        self._connect_lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def connect(self) -> None:
        """Open the connection eagerly (otherwise the first call does it)."""
        await self._ensure_connected()

    async def _ensure_connected(self) -> None:
        if self._closed:
            raise ServiceUnavailable("client is closed")
        async with self._connect_lock:
            if self._writer is not None:
                return
            reader, writer = await _open_connection(self.address)
            self._writer = writer
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self._dispatch(frame)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            self._drop_connection()

    def _dispatch(self, frame: dict[str, Any]) -> None:
        if frame.get("type") == "status-reply":
            future = self._status_future
            self._status_future = None
            if future is not None and not future.done():
                future.set_result(frame)
            return
        rid = frame.get("rid")
        future = self._futures.pop(rid, None) if isinstance(rid, int) else None
        if future is not None and not future.done():
            future.set_result(frame)

    def _drop_connection(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._reader_task = None
        lost = ServiceUnavailable(f"connection to {self.address} lost")
        for future in self._futures.values():
            if not future.done():
                future.set_exception(lost)
        self._futures.clear()
        future = self._status_future
        self._status_future = None
        if future is not None and not future.done():
            future.set_exception(lost)

    def _send(self, payload: dict[str, Any]) -> None:
        writer = self._writer
        if writer is None:
            raise ServiceUnavailable(f"not connected to {self.address}")
        try:
            writer.write(encode_frame(payload))
        except Exception as exc:  # broken pipe etc.
            self._drop_connection()
            raise ServiceUnavailable(str(exc)) from exc

    async def close(self) -> None:
        self._closed = True
        task = self._reader_task
        self._drop_connection()
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def __aenter__(self) -> "LockClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _next_rid(self) -> int:
        self._counter += 1
        rid = self.client_id * 1_000_000 + self._counter
        if self.trace_sample > 0.0 and sample_request(self.client_id, rid, self.trace_sample):
            self._trace_ids[rid] = trace_id_for(self.client_id, rid)
            self.traces_sampled += 1
        return rid

    def _with_trace(self, payload: dict[str, Any], rid: int) -> dict[str, Any]:
        trace_id = self._trace_ids.get(rid)
        if trace_id is not None:
            payload["tr"] = trace_id
        return payload

    async def _backoff(self, attempt: int, deadline: float | None) -> None:
        delay = self.retry.delay(attempt, self._rng)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - asyncio.get_running_loop().time()))
        self.retries += 1
        await asyncio.sleep(delay)

    async def acquire(self, timeout: float | None = None) -> int:
        """Acquire the lock; returns the request id to pass to :meth:`release`.

        Raises :class:`AcquireTimeout` at the deadline (after a best-effort
        server-side cancel), :class:`RetryExhausted` when transient failures
        outlast the retry budget, :class:`RequestRejected` on a non-retryable
        server error.
        """
        loop = asyncio.get_running_loop()
        rid = self._next_rid()
        deadline = None if timeout is None else loop.time() + timeout
        attempt = 0
        last_error: str | None = None
        while True:
            if deadline is not None and loop.time() >= deadline:
                await self._abandon(rid)
                raise AcquireTimeout(self.client_id, timeout or 0.0, detail=f"request {rid}")
            attempt += 1
            if attempt > self.retry.max_attempts:
                raise RetryExhausted("acquire", attempt - 1, last_error)
            try:
                await self._ensure_connected()
                future: asyncio.Future = loop.create_future()
                self._futures[rid] = future
                # Same rid every attempt: the server's request state machine
                # makes the retry idempotent.
                self._send(
                    self._with_trace(
                        {"type": "acquire", "rid": rid, "client": self.client_id}, rid
                    )
                )
                remaining = None if deadline is None else max(0.0, deadline - loop.time())
                frame = await _reply(future, remaining)
            except (ConnectionError, OSError, ServiceUnavailable) as exc:
                self.reconnects += 1
                last_error = str(exc)
                await self._backoff(attempt, deadline)
                continue
            except asyncio.TimeoutError:
                self._futures.pop(rid, None)
                await self._abandon(rid)
                raise AcquireTimeout(
                    self.client_id, timeout or 0.0, detail=f"request {rid}"
                ) from None
            kind = frame.get("type")
            if kind == "granted":
                return rid
            error = frame.get("error", "unknown")
            if error in _RETRYABLE:
                last_error = error
                await self._backoff(attempt, deadline)
                continue
            self._trace_ids.pop(rid, None)
            raise RequestRejected(error, detail=str(frame.get("detail", "")))

    async def _abandon(self, rid: int) -> None:
        """Best-effort server-side cancel of a timed-out acquire."""
        try:
            await self._ensure_connected()
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._futures[rid] = future
            self._send(self._with_trace({"type": "cancel", "rid": rid}, rid))
            await _reply(future, 0.5)
        except (ConnectionError, OSError, ServiceUnavailable, asyncio.TimeoutError):
            self._futures.pop(rid, None)
        finally:
            self._trace_ids.pop(rid, None)

    async def release(self, rid: int) -> str:
        """Release the lock held under ``rid``.

        Returns ``"released"`` on a normal release and ``"lost"`` when the
        grant died with a server crash (nothing left to release).  Raises
        :class:`RequestRejected` for a genuine non-holder release and
        :class:`RetryExhausted` when the server stays unreachable.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        last_error: str | None = None
        while True:
            attempt += 1
            if attempt > self.retry.max_attempts:
                raise RetryExhausted("release", attempt - 1, last_error)
            try:
                await self._ensure_connected()
                future: asyncio.Future = loop.create_future()
                self._futures[rid] = future
                self._send(self._with_trace({"type": "release", "rid": rid}, rid))
                frame = await _reply(future, self.retry.max_delay * 2)
            except (ConnectionError, OSError, ServiceUnavailable, asyncio.TimeoutError) as exc:
                self.reconnects += 1
                last_error = str(exc)
                await self._backoff(attempt, None)
                continue
            kind = frame.get("type")
            if kind == "released":
                self._trace_ids.pop(rid, None)
                return "lost" if frame.get("lost") else "released"
            error = frame.get("error", "unknown")
            if error in _RETRYABLE:
                # The home server is down right now; the crash already
                # surrendered the CS, so the lock is simply gone.
                self._trace_ids.pop(rid, None)
                return "lost"
            raise RequestRejected(error, detail=str(frame.get("detail", "")))

    async def cancel(self, rid: int) -> None:
        """Withdraw a queued acquire (used internally at the deadline)."""
        await self._abandon(rid)

    async def status(self, timeout: float = 2.0) -> dict[str, Any]:
        """Fetch the home server's status document."""
        await self._ensure_connected()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._status_future = future
        self._send({"type": "status"})
        return await _reply(future, timeout)

    @asynccontextmanager
    async def locked(self, timeout: float | None = None) -> AsyncIterator[int]:
        """``async with client.locked(timeout=1.0) as rid: ...``"""
        rid = await self.acquire(timeout=timeout)
        try:
            yield rid
        finally:
            await self.release(rid)
