"""Pluggable transports between the lease tiers.

The three-tier stack (SL-Manager -> SL-Local -> SL-Remote) talks
through a :class:`Transport`, so the *same* SL-Local code runs against:

* :class:`InProcessTransport` — direct dispatch to handler objects
  through a :class:`SimulatedLink`; the deterministic, cheap backend
  every experiment uses.
* :class:`SerializedLoopbackTransport` — identical topology, but every
  request and response is forced through the wire codec
  (:mod:`repro.net.codec`).  Anything that would break over a real
  network — shared object identity, unserializable fields — breaks
  loudly here, while determinism is fully preserved.
* :class:`TcpTransport` — a real socket client for an SL-Remote served
  by :class:`repro.net.aio.AsyncLeaseServer` in another process, with
  length-prefixed CRC-checked binary frames, request timeouts, and
  retry-with-backoff.
  Each attempt still charges one RTT of *virtual* time to the caller's
  clock, folding the real wire into the SimulatedLink accounting model
  (an unreliable server shows up as longer renewal latencies, exactly
  like a lossy simulated link).

Handlers needing the caller's clock/stats (the remote-attestation path
charges its 3.5 s to the *caller*) declare it by accepting ``clock`` /
``stats`` keyword arguments; :class:`HandlerTable` forwards them.
"""

from __future__ import annotations

import inspect
import socket
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.protocol import BatchRequest, BatchResponse
from repro.net import codec
from repro.net.endpoint import EndpointConfig
from repro.net.errors import (
    DialError,
    Overloaded,
    RetriesExhausted,
    TamperedFrame,
    TransportError,
    UnknownMethodError,
)
from repro.net.network import NetworkConditions, SimulatedLink
from repro.sgx.driver import SgxStats
from repro.sim.clock import Clock, seconds_to_cycles

__all__ = [
    "TransportError",
    "TamperedFrame",
    "UnknownMethodError",
    "HandlerTable",
    "Transport",
    "InProcessTransport",
    "SerializedLoopbackTransport",
    "RenewCoalescer",
    "TcpTransport",
    "loopback_transport",
    "read_frame",
    "transport_telemetry",
]


class HandlerTable:
    """Server-side dispatch table: method name -> handler callable."""

    def __init__(self, handlers: Optional[Mapping[str, Callable]] = None) -> None:
        self._handlers: Dict[str, Callable] = {}
        self._wants: Dict[str, Tuple[bool, bool]] = {}
        if handlers:
            for method, handler in handlers.items():
                self.register(method, handler)

    def register(self, method: str, handler: Callable,
                 override: bool = False) -> None:
        """Bind ``method`` to ``handler``.

        Duplicate bindings are a bug unless ``override=True`` — the
        escape hatch extra handlers use to wrap a protocol method
        (e.g. the replication manager's quorum-gated ``init``).
        """
        if method in self._handlers and not override:
            raise ValueError(f"handler for {method!r} already registered")
        self._handlers[method] = handler
        parameters = inspect.signature(handler).parameters
        self._wants[method] = ("clock" in parameters, "stats" in parameters)

    def methods(self) -> Tuple[str, ...]:
        return tuple(self._handlers)

    def dispatch(self, method: str, request: object,
                 clock: Optional[Clock] = None,
                 stats: Optional[SgxStats] = None):
        handler = self._handlers.get(method)
        if handler is None:
            raise UnknownMethodError(f"no such remote method {method!r}")
        wants_clock, wants_stats = self._wants[method]
        kwargs = {}
        if wants_clock and clock is not None:
            kwargs["clock"] = clock
        if wants_stats and stats is not None:
            kwargs["stats"] = stats
        return handler(request, **kwargs)


class Transport:
    """One round trip of the lease protocol; backends override this."""

    name = "abstract"

    def request(self, method: str, payload: object,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        """Send ``payload`` to ``method`` and return the response.

        ``clock=None`` means the caller explicitly opted out of link
        accounting (the RPC layer's ``local=True``); transports that
        cannot bypass a real network reject it.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any connection state (no-op for in-process backends)."""


#: EWMA smoothing for the socket transports' observed round-trip time:
#: heavy enough that one slow request does not dominate, light enough
#: that a degrading link shows within a handful of renewals.
RTT_EWMA_ALPHA = 0.2


def transport_telemetry(transport) -> Dict[str, Any]:
    """Observed per-connection condition evidence, best effort.

    The renewal control loop ships this with every ``RenewRequest`` so
    SL-Remote sizes grants from what the connection actually did — the
    empirical delivery rate, the measured round-trip EWMA, and the
    cumulative retry/reconnect counters — rather than static defaults.
    Works against any transport: fields a backend does not track fall
    back to its configured :class:`SimulatedLink` conditions or to
    neutral defaults, so in-process experiments keep their semantics.
    """
    reliability = getattr(transport, "observed_reliability", None)
    if reliability is None:
        link = getattr(transport, "link", None)
        reliability = getattr(link, "observed_reliability", None)
    rtt = getattr(transport, "rtt_ewma_seconds", 0.0) or 0.0
    if not rtt:
        conditions = getattr(transport, "conditions", None)
        if conditions is None:
            link = getattr(transport, "link", None)
            conditions = getattr(link, "conditions", None)
        if conditions is not None:
            rtt = conditions.round_trip_seconds
    return {
        # NodeCondition demands reliability in (0, 1]: clamp a fully
        # dead sample window to a near-zero floor instead of zero.
        "network_reliability": (
            None if reliability is None
            else min(1.0, max(0.01, float(reliability)))
        ),
        "rtt_seconds": float(rtt),
        "retries": int(getattr(transport, "messages_dropped", 0) or 0),
        "reconnects": int(getattr(transport, "reconnects", 0) or 0),
    }


class InProcessTransport(Transport):
    """The historical behavior: simulated link + direct dispatch."""

    name = "in-process"

    def __init__(self, handlers: HandlerTable, link: SimulatedLink) -> None:
        self.handlers = handlers
        self.link = link

    def request(self, method: str, payload: object,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        if clock is not None:
            self.link.round_trip(clock)
        return self.handlers.dispatch(method, payload, clock=clock, stats=stats)


class SerializedLoopbackTransport(Transport):
    """In-process dispatch with a mandatory wire round trip.

    Requests and responses both pass through encode -> bytes -> decode,
    so the handler only ever sees a *rebuilt copy* of the request and
    the caller a rebuilt copy of the response — any accidental
    shared-object coupling between the tiers is severed, and fields a
    real network could not carry fail with :class:`codec.CodecError`.
    """

    name = "serialized"

    def __init__(self, handlers: HandlerTable, link: SimulatedLink) -> None:
        self.handlers = handlers
        self.link = link
        self.bytes_sent = 0
        self.bytes_received = 0
        self._request_id = 0

    def request(self, method: str, payload: object,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        if clock is not None:
            self.link.round_trip(clock)
        self._request_id += 1
        wire_request = codec.encode_request(method, payload, self._request_id)
        self.bytes_sent += len(wire_request)
        decoded_method, decoded_payload, request_id = codec.decode_request(
            wire_request
        )
        response = self.handlers.dispatch(
            decoded_method, decoded_payload, clock=clock, stats=stats
        )
        wire_response = codec.encode_response(response, request_id)
        self.bytes_received += len(wire_response)
        return codec.decode_response(wire_response)


class _BatchSlot:
    """One caller's seat in a coalesced renewal frame."""

    __slots__ = ("payload", "event", "reply", "error")

    def __init__(self, payload: object) -> None:
        self.payload = payload
        self.event = threading.Event()
        self.reply: object = None
        self.error: Optional[BaseException] = None


#: Most renewals one BatchRequest frame may carry; a gathering round
#: larger than this is sent as several sequential frames.
MAX_BATCH_REQUESTS = 256


class RenewCoalescer:
    """Gathers concurrent ``renew`` calls into one ``renew_batch`` frame.

    The first caller of a gathering round becomes the **leader**: it
    waits ``window_seconds`` for peers to pile on, then ships everything
    gathered so far as a single :class:`~repro.core.protocol.BatchRequest`
    and distributes the positional replies.  Followers just park on
    their slot.  Callers arriving while a leader is mid-flight start the
    next round, so the pipeline never stalls behind an in-flight batch.

    The payoff is server-side: N coalesced renewals cost one frame, one
    thread hand-off, and one durable ledger commit (one group fsync)
    instead of N of each; ``bench/``'s ``batch_durable`` workload
    measures it.
    """

    def __init__(self, window_seconds: float,
                 wait_budget_seconds: float = 60.0) -> None:
        if window_seconds <= 0:
            raise ValueError("batching needs a positive window")
        self.window_seconds = window_seconds
        self.wait_budget_seconds = wait_budget_seconds
        self._lock = threading.Lock()
        self._slots: list = []
        self.batches_sent = 0
        self.requests_coalesced = 0
        self.largest_batch = 0

    def submit(self, payload: object, send: Callable) -> object:
        """Park ``payload`` in the current round; returns its reply.

        ``send(payloads) -> replies`` ships one gathered round and must
        return exactly one reply per payload, in order.
        """
        slot = _BatchSlot(payload)
        with self._lock:
            self._slots.append(slot)
            leader = len(self._slots) == 1
        if leader:
            time.sleep(self.window_seconds)
            with self._lock:
                batch, self._slots = self._slots, []
            self._ship(batch, send)
        if not slot.event.wait(self.wait_budget_seconds):
            raise TransportError(
                f"coalesced renewal got no reply within "
                f"{self.wait_budget_seconds}s"
            )
        if slot.error is not None:
            raise slot.error
        return slot.reply

    def _ship(self, batch: list, send: Callable) -> None:
        for start in range(0, len(batch), MAX_BATCH_REQUESTS):
            chunk = batch[start:start + MAX_BATCH_REQUESTS]
            try:
                replies = send([s.payload for s in chunk])
                if len(replies) != len(chunk):
                    raise TransportError(
                        f"batch of {len(chunk)} renewals answered with "
                        f"{len(replies)} replies"
                    )
            except BaseException as exc:  # noqa: BLE001 - fan the fault out
                for member in chunk:
                    member.error = exc
                    member.event.set()
                continue
            self.batches_sent += 1
            self.requests_coalesced += len(chunk)
            self.largest_batch = max(self.largest_batch, len(chunk))
            for member, reply in zip(chunk, replies):
                member.reply = reply
                member.event.set()


class TcpTransport(Transport):
    """Strict-ordered socket client for an SL-Remote behind
    :class:`~repro.net.aio.AsyncLeaseServer`.

    One persistent connection, length-prefixed binary frames
    (:mod:`repro.net.codec`).  A request that times out or hits a
    broken connection is retried with
    exponential backoff up to ``max_attempts`` times; every attempt
    charges one virtual RTT to the caller's clock (the SimulatedLink
    accounting model), and real-world waiting happens via socket
    timeouts.  Application-level errors reported by the server are
    *not* retried — they surface immediately.

    Connection resilience: dialing has its **own** budget
    (``reconnect_attempts`` tries with ``reconnect_backoff_seconds``
    exponential backoff), separate from the per-call retry budget.  A
    server restart mid-session therefore costs the one in-flight request
    attempt that observed the broken socket, after which the transport
    re-dials on its reconnect budget and the session simply resumes —
    the lease protocol needs no connection-level handshake because every
    request carries the client's SLID, and all server-side session state
    (identity, ledgers, escrowed root keys) is keyed by it, not by the
    socket.  Half-open sockets (peer vanished without a FIN) cannot be
    seen at send time — the kernel buffers the bytes — so they are
    detected one step later, when the response read times out or the
    stream dies mid-frame; both land in the same reconnect path.
    """

    name = "tcp"

    def __init__(
        self,
        host: str,
        port: int,
        conditions: Optional[NetworkConditions] = None,
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
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._request_id = 0
        self._ever_connected = False
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Reply frames that failed to decode (tampered/corrupted):
        #: surfaced as typed :class:`TamperedFrame` errors, never
        #: silently retried.
        self.frames_rejected = 0
        #: Successful re-dials after an established session lost its
        #: socket (a server restart survived in place).
        self.reconnects = 0
        #: EWMA of the *real* round-trip time of successful exchanges —
        #: the latency half of the telemetry renewals carry upstream.
        self.rtt_ewma_seconds = 0.0
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

    # -- connection management -----------------------------------------
    def _connection(self) -> socket.socket:
        """The live socket, (re)dialing on the reconnect budget if needed."""
        if self._sock is not None:
            return self._sock
        last_error: Optional[OSError] = None
        for attempt in range(1, self.reconnect_attempts + 1):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_seconds
                )
            except OSError as exc:
                last_error = exc
                if attempt < self.reconnect_attempts:
                    time.sleep(
                        self.reconnect_backoff_seconds * (2 ** (attempt - 1))
                    )
                continue
            sock.settimeout(self.timeout_seconds)
            self._sock = sock
            if self._ever_connected:
                self.reconnects += 1
            self._ever_connected = True
            return sock
        raise DialError(
            f"could not (re)connect to {self.host}:{self.port} after "
            f"{self.reconnect_attempts} dial attempts: {last_error}",
            host=self.host, port=self.port,
            attempts=self.reconnect_attempts,
        )

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    # -- the round trip ------------------------------------------------
    def request(self, method: str, payload: object,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        if clock is None:
            raise TransportError(
                "TcpTransport cannot bypass the network: a real wire has no "
                "local fast path"
            )
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
        last_error: Optional[Exception] = None
        with self._lock:
            for attempt in range(1, self.max_attempts + 1):
                self._request_id += 1
                frame = request_frame(method, payload, self._request_id)
                # Virtual accounting first: a lost/timed-out request is
                # detected a full RTT later, same as SimulatedLink.
                if charge_rtt or attempt > 1:
                    clock.advance(
                        seconds_to_cycles(self.conditions.round_trip_seconds)
                    )
                self.messages_sent += 1
                started = time.monotonic()
                try:
                    result = self._round_trip(frame)
                    self._note_rtt(time.monotonic() - started)
                    return result
                except codec.RemoteCallError:
                    # The server answered — a complete round trip.
                    self._note_rtt(time.monotonic() - started)
                    raise  # retrying cannot help
                except DialError:
                    # A whole reconnect budget just failed; the per-call
                    # budget re-dialing max_attempts more times would only
                    # multiply the two budgets against a dead host.
                    self.messages_dropped += 1
                    raise
                except codec.CodecError as exc:
                    # The reply failed to decode, or answers a request
                    # this call did not send: tampering evidence, not
                    # loss.  The stream is desynchronized (we may have
                    # stopped mid-frame, or a replayed frame shifted
                    # every later reply by one) and a silent retry
                    # would hide the tamper, so drop the connection and
                    # surface the typed error immediately.
                    self.messages_dropped += 1
                    self.frames_rejected += 1
                    self._drop_connection()
                    raise TamperedFrame(
                        f"tcp reply for {method!r} from "
                        f"{self.host}:{self.port} rejected: {exc}",
                        host=self.host, port=self.port,
                    ) from exc
                except OSError as exc:
                    self.messages_dropped += 1
                    last_error = exc
                    self._drop_connection()
                    if attempt < self.max_attempts:
                        time.sleep(self.backoff_seconds * (2 ** (attempt - 1)))
        raise RetriesExhausted(
            f"tcp request {method!r} to {self.host}:{self.port} failed after "
            f"{self.max_attempts} attempts: {last_error}",
            attempts=self.max_attempts,
        )

    def _round_trip(self, frame: bytearray):
        sock = self._connection()
        sock.sendall(frame)
        # One physical frame = one charge, whatever it coalesces.
        self.bytes_sent += len(frame)
        self.frames_sent += 1
        data = read_frame(sock)
        self.bytes_received += len(data) + codec.FRAME_HEADER.size
        self.frames_received += 1
        reply = codec.decode_reply(data)
        if reply.kind == "error" and reply.meta.get("overloaded"):
            # The server answered by shedding this connection; it will
            # close the socket next, so drop our side pre-emptively.
            self._drop_connection()
            raise Overloaded(reply.error or "server overloaded")
        unread_request = reply.kind == "error" and reply.request_id == 0
        if reply.request_id != self._request_id and not unread_request:
            # Replies match requests by position on this connection, so
            # a reply carrying any other id is a duplicated, replayed
            # or reordered frame.  The one exception is the server
            # saying it could not decode our frame: it never learned
            # the id, answers with 0 (ids start at 1), and that typed
            # rejection must reach the caller.
            raise codec.CodecError(
                f"reply carries request id {reply.request_id}, "
                f"expected {self._request_id}"
            )
        return reply.deliver()

    def _note_rtt(self, seconds: float) -> None:
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


def loopback_transport(kind: str, handlers: HandlerTable,
                       link: SimulatedLink) -> Transport:
    """Build one of the two in-process backends by name."""
    if kind == "in-process":
        return InProcessTransport(handlers, link)
    if kind == "serialized":
        return SerializedLoopbackTransport(handlers, link)
    raise ValueError(
        f"unknown loopback transport {kind!r}; choose 'in-process' or "
        f"'serialized' (use TcpTransport for 'tcp')"
    )


def request_frame(method: str, payload: object, request_id: int,
                  meta: Optional[Dict[str, Any]] = None) -> bytearray:
    """One framed request, built before anything is charged, counted or
    sent.  A payload the codec refuses is the caller's mistake: it
    surfaces as a plain :class:`TransportError` naming the refusal —
    never as the :class:`TamperedFrame` a bad *reply* earns — and costs
    neither a counter nor the connection."""
    try:
        return codec.frame_request(method, payload, request_id, meta=meta)
    except codec.CodecError as exc:
        raise TransportError(
            f"cannot encode {method!r} request: {exc}") from exc


def read_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame from a stream socket."""
    header = _read_exact(sock, codec.FRAME_HEADER.size)
    return _read_exact(sock, codec.frame_length(header))


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
