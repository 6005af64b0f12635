"""Leader/followers lease serving and a pipelining socket client.

The paper's deployment shape is one vendor SL-Remote in front of a
large fleet of mostly-idle SL-Locals that wake up only to renew their
sub-GCLs, on the protected application's critical path: park thousands
of idle sockets for free, answer the one that wakes in the fewest steps.

* :class:`AsyncLeaseServer` — up to ``max_workers`` threads share one
  selector.  Exactly one, the **leader**, waits in ``select()``; when a
  connection turns readable it disarms it, hands leadership to a
  follower (the only cross-thread step) and itself does ``recv`` →
  frame → decode → dispatch → encode → ``sendall``.  No request is
  queued to another thread and no reply travels back through a loop.
  An idle SL-Local costs one selector registration, a blocking handler
  (fsync, quorum wait, license lock) stalls only its own thread, and a
  half-sent frame waits in a per-connection buffer.  Handlers stay
  synchronous, so the sharding release's semantics are untouched.
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
Kept by *when* a connection is re-armed.  A request **without** a
correlation tag — the strict-ordered
:class:`~repro.net.transport.TcpTransport` — is answered before the
connection's next frame is looked at, and only then is the connection
re-armed, so position-matching clients never see a reorder.  A request
**with** a tag gives the connection back *before* dispatch — to the
selector, or to the next free thread when more of a burst is already
buffered — so tagged requests run side by side and each reply carries
its tag.  A connection is as pipelined as its client asked, no more.

Connection resilience mirrors :class:`~repro.net.transport.TcpTransport`:
dialing has its own reconnect budget with exponential backoff, separate
from the per-call retry budget, and a mid-session server restart is
survived by re-dialing and simply continuing — every request carries the
SLID, and all server-side session state (identity, ledgers, escrowed
root keys) is keyed by it, not by the socket.
"""

from __future__ import annotations

import contextlib
import itertools
import selectors
import socket as _socket
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

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
from repro.net.stats import WireStats, attach_server_stats, overload_frame
from repro.net.transport import (
    HandlerTable,
    RenewCoalescer,
    RTT_EWMA_ALPHA,
    Transport,
    request_frame,
)
from repro.net.network import NetworkConditions
from repro.sgx.driver import SgxStats, ThreadSafeSgxStats
from repro.sim.clock import Clock, ThreadSafeClock, seconds_to_cycles

#: A reply is a blocking ``sendall`` on the serving thread, so a peer
#: that stops reading holds that thread for at most this long and is
#: then dropped: at most ``max_workers`` stalled readers, for a bounded time.
SEND_TIMEOUT_SECONDS = 10.0
_RECV_BYTES = 65536


class _Connection:
    """An accepted socket, its unframed bytes (a half-sent frame waits
    here, not in a thread) and the lock that keeps replies whole."""

    __slots__ = ("sock", "inbox", "write_lock")

    def __init__(self, sock: _socket.socket) -> None:
        self.sock = sock
        self.inbox = bytearray()
        self.write_lock = threading.Lock()


class AsyncLeaseServer:
    """Serve one SL-Remote (or a sharded fleet) from a leader/followers pool.

    The one lease server: ``start()/stop()/wait()``, the serving
    counters, and handler dispatch with the server-owned clock/stats
    behind every wiring point (CLI, cluster, deployment, benchmarks).

    ``max_workers`` caps the pool; threads are spawned as load demands,
    one waits in ``select()`` and the rest answer requests (contending
    only on per-license locks).  Size it to the handlers that may
    *block* at once (fsync, quorum wait, a contended license) plus one
    to watch the sockets.  ``max_connections`` sheds accepts beyond the
    cap with a typed error envelope (:func:`~repro.net.stats.overload_frame`).
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
        #: Guards what every serving thread updates: the counters, the
        #: connection set and the pool bookkeeping.
        self._counters_lock = threading.Lock()
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_accepted = 0
        self.connections_shed = 0
        self._connections: Set[_Connection] = set()
        self._threads: List[threading.Thread] = []
        self._idle = 0  # pool threads not answering a request right now
        #: Held by the leader, the one thread allowed to ``select()``.
        #: Followers queue on it; releasing it *is* the hand-off.
        self._leader = threading.Lock()
        #: Disarmed connections awaiting a thread: ``(method, conn)``.
        self._ready: Deque[Tuple[Callable, _Connection]] = deque()
        self._selector: Optional[selectors.BaseSelector] = None
        self._stopping = threading.Event()
        attach_server_stats(self.handlers, self)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, start the first pool thread; returns (host, port)."""
        if self._selector is not None:
            raise RuntimeError("server already started")
        # SO_REUSEADDR included: a restart must not wait out TIME_WAIT.
        self._listener = listener = _socket.create_server(
            (self.host, self.port), backlog=self.accept_backlog)
        listener.setblocking(False)
        self.host, self.port = listener.getsockname()[:2]
        self._wake_r, self._wake_w = _socket.socketpair()
        self._wake_w.setblocking(False)  # a full pipe is a pending wake-up
        self._selector = selectors.DefaultSelector()
        # epoll/kqueue report an fd registered while a thread already
        # waits; poll/select took a snapshot: there a re-arm wakes the leader.
        self._wake_on_arm = not isinstance(self._selector, (
            getattr(selectors, "EpollSelector", ()),
            getattr(selectors, "KqueueSelector", ())))
        self._selector.register(listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                lambda: self._wake_r.recv(4096))
        self._spawn_worker()  # no second thread yet to race the bookkeeping
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def open_connections(self) -> int:
        return len(self._connections)

    def stop(self) -> None:
        """Stop serving, join the pool, close every socket."""
        stopped = self._stopping.is_set()
        self._stopping.set()  # even if never started: wait() must return
        if self._selector is None or stopped:
            return
        self._wake()
        for thread in self._threads:  # sees a thread a hand-off adds late
            thread.join(timeout=5.0)
        with self._counters_lock:
            connections, self._connections = self._connections, set()
        for sock in [conn.sock for conn in connections] + [
                self._listener, self._wake_r, self._wake_w]:
            sock.close()
        self._selector.close()

    def wait(self) -> None:
        """Block the calling thread until :meth:`stop` (CLI foreground)."""
        self._stopping.wait()

    # -- the pool: one leader in select(), followers queued on the lock --
    def _spawn_worker(self) -> None:
        """Under ``_counters_lock``; the new thread starts idle."""
        thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"lease-aio-worker-{len(self._threads)}")
        self._threads.append(thread)
        self._idle += 1
        thread.start()

    def _run(self) -> None:
        while True:
            with self._leader:
                if not self._ready and not self._stopping.is_set():
                    for key, _events in self._selector.select():
                        if isinstance(key.data, _Connection):
                            # Disarmed: its read side is the taker's.
                            self._selector.unregister(key.fd)
                            self._ready.append((self._receive, key.data))
                        else:
                            key.data()  # accept / drain the wake pipe
                if self._stopping.is_set():
                    return
                if not self._ready:
                    continue
                method, conn = self._ready.popleft()
                with self._counters_lock:
                    # Leaving select() to a follower: have one, up to the cap.
                    self._idle -= 1
                    if not self._idle and len(self._threads) < self.max_workers:
                        self._spawn_worker()
            method(conn)
            with self._counters_lock:
                self._idle += 1

    def _wake(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._wake_w.send(b"\0")

    def _arm(self, conn: _Connection) -> None:
        """Give ``conn``'s read side back to the selector."""
        try:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        except (ValueError, OSError):
            return  # stop() closed it under a handler that outlived the join
        if self._wake_on_arm:
            self._wake()

    def _accept(self) -> None:
        """Leader-side: take what the backlog holds, never blocking."""
        for _ in range(self.accept_backlog):
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return  # drained (or the peer already reset)
            with contextlib.suppress(OSError):
                # Accepted sockets linger in FIN_WAIT after a stop() and
                # would block a rebind; Nagle would only delay a reply.
                sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
            sock.settimeout(SEND_TIMEOUT_SECONDS)
            if (self.max_connections is not None
                    and self.open_connections >= self.max_connections):
                # Over the cap: one typed error envelope, then close.
                with self._counters_lock:
                    self.connections_shed += 1
                with contextlib.suppress(OSError):
                    sock.sendall(overload_frame())
                sock.close()
                continue
            conn = _Connection(sock)
            with self._counters_lock:
                self.connections_accepted += 1
                self._connections.add(conn)
            self._arm(conn)

    # -- serving: the thread that took the connection does all of it ---
    def _receive(self, conn: _Connection) -> None:
        """The selector said readable: one ``recv``, then the frames."""
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except OSError:
            chunk = b""
        if not chunk:
            return self._close(conn)  # peer gone
        conn.inbox += chunk
        self._serve(conn)

    def _close(self, conn: _Connection) -> None:
        """Only for the thread holding ``conn``'s read side."""
        with self._counters_lock:
            self._connections.discard(conn)
        conn.sock.close()

    def _serve(self, conn: _Connection) -> None:
        """Answer ``conn``'s complete frames; owns its read side until
        it re-arms the connection or hands the rest of a burst on."""
        header_size = codec.FRAME_HEADER.size
        inbox = conn.inbox
        while len(inbox) >= header_size:
            try:
                end = header_size + codec.frame_length(inbox[:header_size])
            except codec.CodecError:
                # A length prefix past MAX_FRAME_BYTES: stream sync is
                # lost, so the connection dies — counted first.
                self.wire_stats.note_rejected()
                return self._close(conn)
            if len(inbox) < end:
                break
            data = bytes(inbox[header_size:end])
            del inbox[:end]
            self.wire_stats.note_decoded(end)
            try:
                method, payload, request_id, meta = \
                    codec.decode_request_envelope(data)
            except codec.CodecError as exc:
                # Framing held but the payload would not decode: typed
                # error envelope back, rejection counted for audits.
                self.wire_stats.note_rejected()
                with self._counters_lock:
                    self.errors_returned += 1
                self._write(conn, codec.frame_error(
                    f"{type(exc).__name__}: {exc}", 0))
                continue
            if method == "renew_batch" and hasattr(payload, "requests"):
                self.wire_stats.note_batch(len(payload.requests))
            corr = meta.get(codec.CORRELATION_KEY)
            if corr is None:
                # Strict order: this peer matches replies by position,
                # so answer before looking at its next frame.
                self._answer(conn, method, payload, request_id, None)
                continue
            # Tagged: give up the read side *before* dispatch, so later
            # requests run beside this one — a buffered burst on the next
            # free pool thread, bytes still on the wire via the selector.
            if inbox:
                self._ready.append((self._serve, conn))
                self._wake()
            else:
                self._arm(conn)
            return self._answer(conn, method, payload, request_id, corr)
        self._arm(conn)

    def _answer(self, conn: _Connection, method: str, payload: Any,
                request_id: int, corr: Optional[Any]) -> None:
        meta = {codec.CORRELATION_KEY: corr} if corr is not None else None
        try:
            framed = codec.frame_response(self.handlers.dispatch(
                method, payload, clock=self.clock, stats=self.stats
            ), request_id, meta=meta)
        except Exception as exc:  # noqa: BLE001 - every fault becomes a wire error
            with self._counters_lock:
                self.errors_returned += 1
            framed = codec.frame_error(
                f"{type(exc).__name__}: {exc}", request_id, meta=meta)
        else:
            with self._counters_lock:
                self.requests_served += 1
        self._write(conn, framed)

    def _write(self, conn: _Connection, framed: bytearray) -> None:
        self.wire_stats.note_encoded(len(framed))
        with conn.write_lock:
            try:
                conn.sock.sendall(framed)
            except OSError:
                # Peer gone, or SEND_TIMEOUT_SECONDS ran out mid-frame.
                # This thread may not hold the read side: a shutdown
                # reads as EOF to the one that does, which closes.
                with contextlib.suppress(OSError):
                    conn.sock.shutdown(_socket.SHUT_RDWR)


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
        # This client is asyncio's only user: it loads with the first
        # transport, so a process that only serves never pays for it.
        global asyncio
        import asyncio

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
        #: Drawn by caller threads (``next`` on a count is atomic).
        self._corrs = itertools.count(1)
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
            corr = next(self._corrs)
            frame = request_frame(method, payload, corr,
                                  {codec.CORRELATION_KEY: corr})
            # Virtual accounting first: a lost/timed-out request is
            # detected a full RTT later, same as SimulatedLink.
            if charge_rtt or attempt > 1:
                clock.advance(
                    seconds_to_cycles(self.conditions.round_trip_seconds)
                )
            with self._counters_lock:
                self.messages_sent += 1
            future = asyncio.run_coroutine_threadsafe(
                self._round_trip(corr, frame), loop
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
    async def _round_trip(self, corr: int, frame: bytearray):
        reader, writer = await self._ensure_connection()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[corr] = future
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
