"""Event-loop lease serving and a pipelining socket client.

The paper's deployment shape is one vendor SL-Remote in front of a
large fleet of mostly-idle SL-Locals that wake up only to renew their
sub-GCLs.  That is the many-idle-connections regime where the
thread-per-connection :class:`~repro.net.server.LeaseServer` stops
scaling long before the per-license locks do: every idle socket costs a
resident OS thread.  This module holds connections on a single
``asyncio`` event loop instead, so an idle SL-Local costs one reader
callback and nothing else:

* :class:`AsyncLeaseServer` — one event loop accepts and frames
  thousands of connections; decoded requests are dispatched into a
  **bounded** worker pool (``run_in_executor``), so the license-lock-
  holding :class:`~repro.core.sl_remote.SlRemote` handlers stay
  synchronous and the sharding release's concurrency semantics are
  untouched.  Responses are written as handlers finish — out of order
  when the client opted into pipelining, strictly in order otherwise.
* :class:`AsyncTcpTransport` — a drop-in
  :class:`~repro.net.transport.Transport` that keeps **multiple
  requests in flight on one socket**.  Each request envelope is tagged
  with a correlation id in the envelope metadata
  (:data:`~repro.net.codec.CORRELATION_KEY`); a background reader
  matches responses back to callers whatever order they return in.
  Transports share one module-level event-loop thread, so a hundred
  client handles cost one thread, not a hundred.

Ordering contract
-----------------
A request **without** a correlation tag — the strict-ordered
:class:`~repro.net.transport.TcpTransport` — is dispatched and
answered before the next frame of that connection is read, exactly like
the threaded server, so position-matching clients never see a reorder.
A request **with** a tag runs concurrently and its response carries the
tag back.  One connection can be as pipelined as its client asked for,
and no more.

Connection resilience mirrors :class:`~repro.net.transport.TcpTransport`:
dialing has its own reconnect budget with exponential backoff, separate
from the per-call retry budget, and a mid-session server restart is
survived by re-dialing and simply continuing — every request carries the
SLID, and all server-side session state (identity, ledgers, escrowed
root keys) is keyed by it, not by the socket.
"""

from __future__ import annotations

import asyncio
import socket as _socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.net import codec
from repro.net.endpoint import EndpointConfig
from repro.net.errors import (
    DialError,
    Overloaded,
    RetriesExhausted,
    TamperedFrame,
    TransportError,
)
from repro.core.protocol import BatchRequest, BatchResponse
from repro.net.server import (
    WireStats,
    attach_server_stats,
    overload_frame,
)
from repro.net.transport import (
    HandlerTable,
    RenewCoalescer,
    RTT_EWMA_ALPHA,
    Transport,
)
from repro.net.network import NetworkConditions
from repro.sgx.driver import SgxStats, ThreadSafeSgxStats
from repro.sim.clock import Clock, ThreadSafeClock, seconds_to_cycles


class AsyncLeaseServer:
    """Serve one SL-Remote (or a sharded fleet) on a single event loop.

    API-compatible with :class:`~repro.net.server.LeaseServer` —
    ``start()/stop()/wait()``, the same counters, the same handler
    dispatch with the server-owned clock/stats — so every wiring point
    (CLI, cluster, benchmarks) can switch IO backends with one knob.

    ``max_workers`` bounds the dispatch pool: that many handler calls
    run concurrently (contending only on per-license locks), while any
    number of idle connections wait on the loop for free.
    ``max_connections`` sheds accepts beyond the cap with the same typed
    error envelope as the threaded server.
    """

    def __init__(self, remote, host: str = "127.0.0.1", port: int = 0,
                 clock: Optional[Clock] = None,
                 stats: Optional[SgxStats] = None,
                 accept_backlog: int = 128,
                 max_workers: int = 8,
                 max_connections: Optional[int] = None,
                 extra_handlers=None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        self.remote = remote
        self.handlers = HandlerTable(remote.protocol_handlers())
        for method, handler in (extra_handlers or {}).items():
            self.handlers.register(method, handler, override=True)
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else ThreadSafeClock()
        self.stats = stats if stats is not None else ThreadSafeSgxStats()
        self.accept_backlog = accept_backlog
        self.max_workers = max_workers
        self.max_connections = max_connections
        self.wire_stats = WireStats()
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_accepted = 0
        self.connections_shed = 0
        self.open_connections = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = threading.Event()
        self._conn_tasks: set = set()
        attach_server_stats(self.handlers, self, io_name="async")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Spin up the event-loop thread, bind, listen; returns (host, port)."""
        if self._loop_thread is not None:
            raise RuntimeError("server already started")
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="lease-aio-loop", daemon=True
        )
        self._loop_thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("async lease server failed to start in time")
        if self._startup_error is not None:
            self._loop_thread.join(timeout=2.0)
            self._loop_thread = None
            raise self._startup_error
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def live_workers(self) -> int:
        """Dispatch-pool upper bound (there is no thread per connection)."""
        return self.max_workers

    def stop(self) -> None:
        """Close the listener, drain, and stop the event loop."""
        self._stopping.set()
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None

    def wait(self) -> None:
        """Block the calling thread until :meth:`stop` (CLI foreground)."""
        self._stopping.wait()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="lease-aio-worker"
        )
        try:
            server = await asyncio.start_server(
                self._serve_connection, self.host, self.port,
                backlog=self.accept_backlog,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            self._executor.shutdown(wait=False)
            return
        self._server = server
        self.host, self.port = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            self._executor.shutdown(wait=False)
            self._stopping.set()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # Keep the port rebindable across restarts even while
                # accepted sockets linger in FIN_WAIT (mirrors the
                # threaded server).
                sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        if (self.max_connections is not None
                and self.open_connections >= self.max_connections):
            # Same typed brush-off as the threaded server's accept cap.
            self.connections_shed += 1
            try:
                writer.write(overload_frame())
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()
            return
        self.connections_accepted += 1
        self.open_connections += 1
        this_task = asyncio.current_task()
        if this_task is not None:
            self._conn_tasks.add(this_task)
        write_lock = asyncio.Lock()
        in_flight: set = set()
        try:
            while True:
                try:
                    header = await reader.readexactly(codec.FRAME_HEADER.size)
                    data = await reader.readexactly(codec.frame_length(header))
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    return  # peer gone
                except codec.CodecError:
                    # A length prefix past MAX_FRAME_BYTES: stream sync
                    # is unrecoverable so the connection must die, but
                    # the tampered frame is counted first (mirrors the
                    # threaded server).
                    self.wire_stats.note_rejected()
                    return
                self.wire_stats.note_decoded(
                    len(data) + codec.FRAME_HEADER.size
                )
                try:
                    method, payload, request_id, meta = \
                        codec.decode_request_envelope(data)
                except codec.CodecError as exc:
                    # Framing held but the payload would not decode:
                    # tampering evidence — typed error envelope back,
                    # and the rejection is counted for audits.
                    self.wire_stats.note_rejected()
                    self.errors_returned += 1
                    await self._write(writer, write_lock, codec.encode_error(
                        f"{type(exc).__name__}: {exc}", 0,
                    ))
                    continue
                corr = meta.get(codec.CORRELATION_KEY)
                if method == "renew_batch" and hasattr(payload, "requests"):
                    self.wire_stats.note_batch(len(payload.requests))
                handling = self._respond(
                    method, payload, request_id, corr, writer, write_lock,
                )
                if corr is None:
                    # Strict-ordered mode: a peer that did not tag the
                    # request matches responses by position, so answer
                    # before reading its next frame (threaded-server
                    # semantics).
                    await handling
                else:
                    task = asyncio.get_running_loop().create_task(handling)
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
        except asyncio.CancelledError:
            # stop() cancels every connection task; finishing normally
            # then keeps asyncio's client_connected_cb done-callback
            # from calling exception() on a cancelled task and logging
            # one traceback per open connection.
            if not self._stopping.is_set():
                raise
        finally:
            for task in in_flight:
                task.cancel()
            if this_task is not None:
                self._conn_tasks.discard(this_task)
            self.open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, method: str, payload: Any, request_id: int,
                       corr: Optional[Any], writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        meta = {codec.CORRELATION_KEY: corr} if corr is not None else None
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._dispatch, method, payload
            )
        except Exception as exc:  # noqa: BLE001 - every fault becomes a wire error
            self.errors_returned += 1
            reply = codec.encode_error(
                f"{type(exc).__name__}: {exc}", request_id, meta=meta,
            )
        else:
            self.requests_served += 1
            reply = codec.encode_response(response, request_id, meta=meta)
        await self._write(writer, write_lock, reply)

    def _dispatch(self, method: str, payload: Any):
        """Runs on a pool thread: sync handlers, per-license locks inside."""
        return self.handlers.dispatch(
            method, payload, clock=self.clock, stats=self.stats
        )

    async def _write(self, writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock, reply: bytes) -> None:
        framed = codec.frame(reply)
        self.wire_stats.note_encoded(len(framed))
        async with write_lock:
            try:
                writer.write(framed)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer vanished between dispatch and reply


# ----------------------------------------------------------------------
# The pipelining client
# ----------------------------------------------------------------------
#: One event-loop thread shared by every AsyncTcpTransport in the
#: process — client handles are cheap, the loop is the resource.
_client_loop: Optional[asyncio.AbstractEventLoop] = None
_client_loop_lock = threading.Lock()


def _shared_client_loop() -> asyncio.AbstractEventLoop:
    global _client_loop
    with _client_loop_lock:
        if _client_loop is None or _client_loop.is_closed():
            loop = asyncio.new_event_loop()
            ready = threading.Event()

            def run() -> None:
                asyncio.set_event_loop(loop)
                loop.call_soon(ready.set)
                loop.run_forever()

            thread = threading.Thread(
                target=run, name="lease-aio-client", daemon=True
            )
            thread.start()
            ready.wait(timeout=10.0)
            _client_loop = loop
        return _client_loop


class AsyncTcpTransport(Transport):
    """Pipelining socket client for a lease server.

    The synchronous :meth:`request` contract is unchanged — SL-Local
    and the shard router call it exactly like
    :class:`~repro.net.transport.TcpTransport` — but many caller
    threads can have requests in flight **on the same socket** at once:
    each request is tagged with a correlation id in the envelope
    metadata, and a reader task on the shared client event loop routes
    each response (in whatever order the server finishes them) back to
    the caller that asked.

    Retry/backoff, virtual-RTT accounting, and the reconnect budget all
    mirror ``TcpTransport``, so ``observed_reliability`` and the link
    charging model read identically across backends.
    """

    name = "async-tcp"

    def __init__(
        self,
        host: str,
        port: int,
        conditions: Optional[NetworkConditions] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        config: EndpointConfig = EndpointConfig(),
    ) -> None:
        # Every knob (and its validation) lives in EndpointConfig.
        self.config = config
        self.host = host
        self.port = port
        self.conditions = conditions if conditions is not None else NetworkConditions()
        self.timeout_seconds = config.timeout_seconds
        self.max_attempts = config.max_attempts
        self.backoff_seconds = config.backoff_seconds
        self.reconnect_attempts = config.reconnect_attempts
        self.reconnect_backoff_seconds = config.reconnect_backoff_seconds
        self._loop = loop
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._conn_lock: Optional[asyncio.Lock] = None
        #: corr -> future, loop-confined.
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_corr = 1
        self._ever_connected = False
        self._counters_lock = threading.Lock()
        self.messages_sent = 0
        self.messages_dropped = 0
        self.reconnects = 0
        #: Reply frames that failed to decode (tampered/corrupted):
        #: surfaced as typed :class:`TamperedFrame` errors, never
        #: silently retried.
        self.frames_rejected = 0
        #: EWMA of the *real* round-trip time of completed exchanges —
        #: the latency half of the telemetry renewals carry upstream.
        self.rtt_ewma_seconds = 0.0
        self._closed = False
        #: Per-frame link accounting: every physical frame is charged
        #: once with its actual serialized length, so a batch of N
        #: coalesced renewals bills one frame, not N messages.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.coalescer: Optional[RenewCoalescer] = (
            RenewCoalescer(config.batch_window)
            if config.batch_window > 0 else None
        )

    # -- the round trip (caller thread) --------------------------------
    def request(self, method: str, payload: object,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        if clock is None:
            raise TransportError(
                "AsyncTcpTransport cannot bypass the network: a real wire "
                "has no local fast path"
            )
        if self._closed:
            raise TransportError("transport is closed")
        if method == "renew" and self.coalescer is not None:
            # The caller's own virtual RTT, then one seat in the shared
            # frame; the leader's send path skips its per-call RTT so the
            # frame itself is never double-billed.
            clock.advance(
                seconds_to_cycles(self.conditions.round_trip_seconds)
            )
            return self.coalescer.submit(
                payload, lambda batch: self._send_batch(batch, clock, stats)
            )
        return self._request_single(method, payload, clock, stats)

    def _send_batch(self, payloads: list, clock: Clock,
                    stats: Optional[SgxStats]):
        response = self._request_single(
            "renew_batch", BatchRequest(requests=tuple(payloads)),
            clock, stats, charge_rtt=False,
        )
        if not isinstance(response, BatchResponse) \
                or len(response.responses) != len(payloads):
            raise TransportError(
                f"malformed batch response for {len(payloads)} renewals: "
                f"{type(response).__name__}"
            )
        return list(response.responses)

    def _request_single(self, method: str, payload: object,
                        clock: Clock, stats: Optional[SgxStats],
                        charge_rtt: bool = True):
        loop = self._ensure_loop()
        last_error: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            # Virtual accounting first: a lost/timed-out request is
            # detected a full RTT later, same as SimulatedLink.
            if charge_rtt or attempt > 1:
                clock.advance(
                    seconds_to_cycles(self.conditions.round_trip_seconds)
                )
            with self._counters_lock:
                self.messages_sent += 1
            future = asyncio.run_coroutine_threadsafe(
                self._round_trip(method, payload), loop
            )
            started = time.monotonic()
            try:
                result = future.result()
                self._note_rtt(time.monotonic() - started)
                return result
            except codec.RemoteCallError:
                # The server answered — a complete round trip.
                self._note_rtt(time.monotonic() - started)
                raise  # retrying cannot help
            except Overloaded:
                raise  # the server answered by shedding; same story
            except DialError:
                # A whole reconnect budget just failed; re-dialing
                # max_attempts more times would only multiply budgets.
                with self._counters_lock:
                    self.messages_dropped += 1
                raise
            except codec.CodecError as exc:
                # The reply failed to decode: tampering evidence, not
                # loss.  Retrying would hide the tamper (and race a
                # desynchronized stream); the reader loop already tore
                # the connection down, so surface the typed error.
                with self._counters_lock:
                    self.messages_dropped += 1
                    self.frames_rejected += 1
                raise TamperedFrame(
                    f"async tcp reply for {method!r} from "
                    f"{self.host}:{self.port} failed to decode: {exc}",
                    host=self.host, port=self.port,
                ) from exc
            except (ConnectionError, OSError, EOFError) as exc:
                with self._counters_lock:
                    self.messages_dropped += 1
                last_error = exc
                if attempt < self.max_attempts:
                    time.sleep(self.backoff_seconds * (2 ** (attempt - 1)))
        raise RetriesExhausted(
            f"async tcp request {method!r} to {self.host}:{self.port} failed "
            f"after {self.max_attempts} attempts: {last_error}",
            attempts=self.max_attempts,
        )

    def close(self) -> None:
        self._closed = True
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(
            self._teardown(ConnectionError("transport closed")), loop
        ).result(timeout=5.0)

    def _note_rtt(self, seconds: float) -> None:
        with self._counters_lock:
            if self.rtt_ewma_seconds <= 0.0:
                self.rtt_ewma_seconds = seconds
            else:
                self.rtt_ewma_seconds += RTT_EWMA_ALPHA * (
                    seconds - self.rtt_ewma_seconds
                )

    @property
    def observed_reliability(self) -> float:
        """Empirical delivery rate, mirroring SimulatedLink's probe."""
        if self.messages_sent == 0:
            return self.conditions.reliability
        return (self.messages_sent - self.messages_dropped) / self.messages_sent

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = _shared_client_loop()
        return self._loop

    # -- loop-confined internals ---------------------------------------
    async def _round_trip(self, method: str, payload: object):
        reader, writer = await self._ensure_connection()
        corr = self._next_corr
        self._next_corr += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[corr] = future
        frame = codec.frame(codec.encode_request(
            method, payload, corr, meta={codec.CORRELATION_KEY: corr},
        ))
        try:
            try:
                writer.write(frame)
                await writer.drain()
                # One physical frame = one charge, whatever it coalesces.
                with self._counters_lock:
                    self.bytes_sent += len(frame)
                    self.frames_sent += 1
            except (ConnectionError, OSError) as exc:
                # The socket died under the write: drop it now so the
                # caller's next attempt re-dials instead of re-failing.
                await self._teardown(exc)
                raise
            # A response timeout does NOT tear the connection down: a
            # late reply is harmless here (its future is gone and the
            # frame is simply dropped), unlike the strict-ordered client
            # where it would desynchronize position matching.
            reply: codec.WireReply = await asyncio.wait_for(
                future, timeout=self.timeout_seconds
            )
        finally:
            self._pending.pop(corr, None)
        return reply.deliver()

    async def _ensure_connection(
        self
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None:
                return self._reader, self._writer
            last_error: Optional[OSError] = None
            for attempt in range(1, self.reconnect_attempts + 1):
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        timeout=self.timeout_seconds,
                    )
                except OSError as exc:
                    last_error = exc
                    if attempt < self.reconnect_attempts:
                        await asyncio.sleep(
                            self.reconnect_backoff_seconds
                            * (2 ** (attempt - 1))
                        )
                    continue
                self._reader, self._writer = reader, writer
                if self._ever_connected:
                    with self._counters_lock:
                        self.reconnects += 1
                self._ever_connected = True
                self._reader_task = asyncio.get_running_loop().create_task(
                    self._reader_loop(reader)
                )
                return reader, writer
            raise DialError(
                f"could not (re)connect to {self.host}:{self.port} after "
                f"{self.reconnect_attempts} dial attempts: {last_error}",
                host=self.host, port=self.port,
                attempts=self.reconnect_attempts,
            )

    async def _reader_loop(self, reader: asyncio.StreamReader) -> None:
        """Route incoming frames to whichever caller they correlate to."""
        try:
            while True:
                header = await reader.readexactly(codec.FRAME_HEADER.size)
                data = await reader.readexactly(codec.frame_length(header))
                with self._counters_lock:
                    self.bytes_received += len(data) + codec.FRAME_HEADER.size
                    self.frames_received += 1
                reply = codec.decode_reply(data)
                if reply.kind == "error" and reply.meta.get("overloaded"):
                    # The server shed this connection: its brush-off
                    # answers no request in particular and it closes
                    # the socket next, so fail every in-flight caller
                    # with the typed error.
                    raise Overloaded(reply.error or "server overloaded")
                # A pipelining server echoes our tag; a strict-ordered
                # peer omits it but echoes the request id, which we set
                # to the same value — either way the reply finds its
                # caller.
                corr = reply.meta.get(codec.CORRELATION_KEY,
                                      reply.request_id)
                future = self._pending.get(corr)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                codec.CodecError, Overloaded) as exc:
            await self._teardown(exc)
        except asyncio.CancelledError:
            raise

    async def _teardown(self, exc: BaseException) -> None:
        """Drop the connection and fail every in-flight caller."""
        writer, self._reader, self._writer = self._writer, None, None
        task, self._reader_task = self._reader_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        error = exc if isinstance(exc, Exception) else \
            ConnectionError(str(exc))
        for future in list(self._pending.values()):
            if not future.done():
                if isinstance(error, (codec.CodecError, Overloaded)):
                    # Keep the evidence typed: the caller's retry loop
                    # must see a CodecError (surfaced as TamperedFrame)
                    # or the server's Overloaded answer, not a
                    # retriable ConnectionError.
                    future.set_exception(error)
                else:
                    future.set_exception(
                        ConnectionError(
                            f"connection lost mid-flight: {error}"
                        )
                    )
        self._pending.clear()
