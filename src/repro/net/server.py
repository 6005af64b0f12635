"""A real socket server exposing SL-Remote to the network.

:class:`LeaseServer` binds a TCP port and serves the lease protocol —
length-prefixed, CRC-checked binary frames (:mod:`repro.net.codec`) — so
an SL-Remote
process can field init/renew/shutdown traffic from SL-Local instances
on other machines.  This is the deployment shape the paper assumes (a
vendor server in front of a fleet); the in-process transports remain
the deterministic harness for experiments.

Concurrency model: one thread per connection, with handlers dispatched
*concurrently* — :class:`~repro.core.sl_remote.SlRemote` serializes per
license internally (its :class:`~repro.core.sl_remote.LicenseShardState`
locks), so renewals for different licenses proceed in parallel while
same-license renewals queue on that license's lock only.

Attestation and renewal costs are charged to a server-owned virtual
clock (a :class:`~repro.sim.clock.ThreadSafeClock`, since many
connection threads charge it) — over a real wire the *caller's* cost is
its actual socket wait, which the client-side
:class:`~repro.net.transport.TcpTransport` folds into its own clock as
RTTs.  The shared :class:`~repro.sgx.driver.SgxStats` counters default
to a :class:`~repro.sgx.driver.ThreadSafeSgxStats`: they stay
observability-only (a lost increment never affects protocol state), but
the benchmark reports read them, so concurrent dispatch must not
silently undercount.
"""

from __future__ import annotations

import select
import socket
import threading
from typing import List, Optional, Tuple

from repro.net import codec
from repro.net.stats import WireStats, attach_server_stats, overload_frame
from repro.net.transport import HandlerTable, read_frame
from repro.sgx.driver import SgxStats, ThreadSafeSgxStats
from repro.sim.clock import Clock, ThreadSafeClock


class LeaseServer:
    """Serve one SL-Remote (or a sharded fleet of them) over TCP."""

    def __init__(self, remote, host: str = "127.0.0.1", port: int = 0,
                 clock: Optional[Clock] = None,
                 stats: Optional[SgxStats] = None,
                 accept_backlog: int = 128,
                 max_connections: Optional[int] = None,
                 extra_handlers=None) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        self.remote = remote
        self.handlers = HandlerTable(remote.protocol_handlers())
        #: Fleet-internal surfaces (replication, membership probes)
        #: mount alongside the lease protocol on the same port.
        for method, handler in (extra_handlers or {}).items():
            self.handlers.register(method, handler, override=True)
        self.host = host
        self.port = port
        self.clock = clock if clock is not None else ThreadSafeClock()
        self.stats = stats if stats is not None else ThreadSafeSgxStats()
        self.accept_backlog = accept_backlog
        #: Thread-per-connection stops scaling long before the license
        #: locks do; the cap sheds accepts beyond it with a typed error
        #: envelope instead of growing one OS thread per socket forever.
        self.max_connections = max_connections
        self.requests_served = 0
        self.errors_returned = 0
        self.connections_accepted = 0
        self.connections_shed = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._workers_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self._stopping = threading.Event()
        self.wire_stats = WireStats()
        attach_server_stats(self.handlers, self, io_name="threads")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, and serve in the background; returns (host, port)."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.accept_backlog)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="lease-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def live_workers(self) -> int:
        """Connection threads still running (reaped threads excluded)."""
        with self._workers_lock:
            return sum(1 for worker in self._workers if worker.is_alive())

    def stop(self) -> None:
        """Stop accepting, close the listener, and join worker threads."""
        self._stopping.set()
        if self._listener is not None:
            try:
                # shutdown() wakes the thread blocked in accept();
                # close() alone leaves it holding the listening socket
                # (and the port) until a connection happens to arrive.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        with self._workers_lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout=2.0)
        with self._workers_lock:
            self._workers.clear()

    def wait(self) -> None:
        """Block the calling thread until :meth:`stop` (CLI foreground)."""
        self._stopping.wait()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                connection, _peer = listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                # Accepted sockets linger in FIN_WAIT after a stop();
                # without SO_REUSEADDR on them a restart on the same
                # port fails EADDRINUSE until the kernel times them out.
                connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
            except OSError:
                pass
            if (self.max_connections is not None
                    and self.live_workers >= self.max_connections):
                # Accept storm beyond the cap: one typed error envelope,
                # then close — never an unbounded thread per socket.
                self.connections_shed += 1
                try:
                    connection.sendall(overload_frame())
                except OSError:
                    pass
                finally:
                    connection.close()
                continue
            self.connections_accepted += 1
            worker = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"lease-server-conn-{self.connections_accepted}",
                daemon=True,
            )
            with self._workers_lock:
                # Reap finished connection threads before tracking a new
                # one: the list stays proportional to *live* connections
                # instead of growing one entry per connection ever made.
                self._workers = [w for w in self._workers if w.is_alive()]
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        # poll(), not select(): select is capped at fd numbers < 1024,
        # and a server holding a thousand idle connections hands out
        # descriptors well past that.
        poller = select.poll()
        poller.register(connection, select.POLLIN)
        with connection:
            while not self._stopping.is_set():
                # Poll before the blocking frame read so an idle
                # connection re-checks the shutdown flag twice a second
                # without ever timing out mid-frame (which would lose
                # stream sync).
                if not poller.poll(500):
                    continue
                try:
                    data = read_frame(connection)
                except (ConnectionError, OSError):
                    return  # peer gone
                except codec.CodecError:
                    # A length prefix past MAX_FRAME_BYTES: stream sync
                    # is unrecoverable so the connection must die, but
                    # the tampered frame is counted first — silent
                    # closes would make wire tampering unobservable.
                    self.wire_stats.note_rejected()
                    return
                self.wire_stats.note_decoded(
                    len(data) + codec.FRAME_HEADER.size
                )
                reply = self._handle_frame(data)
                framed = codec.frame(reply)
                self.wire_stats.note_encoded(len(framed))
                try:
                    connection.sendall(framed)
                except OSError:
                    return

    def _handle_frame(self, data: bytes) -> bytes:
        request_id = 0
        try:
            method, payload, request_id, _meta = \
                codec.decode_request_envelope(data)
            if method == "renew_batch" and hasattr(payload, "requests"):
                self.wire_stats.note_batch(len(payload.requests))
            response = self.handlers.dispatch(
                method, payload, clock=self.clock, stats=self.stats
            )
        except Exception as exc:  # noqa: BLE001 - every fault becomes a wire error
            if isinstance(exc, codec.CodecError):
                # The frame arrived intact (framing held) but its
                # payload would not decode: wrong magic, checksum
                # mismatch, garbage envelope — tampering evidence,
                # counted so red-team audits can match every tampered
                # frame to a rejection.
                self.wire_stats.note_rejected()
            with self._counters_lock:
                self.errors_returned += 1
            return codec.encode_error(f"{type(exc).__name__}: {exc}",
                                      request_id)
        with self._counters_lock:
            self.requests_served += 1
        return codec.encode_response(response, request_id)
