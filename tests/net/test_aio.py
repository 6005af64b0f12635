"""AsyncLeaseServer + AsyncTcpTransport: leader/followers serving,
pipelining, correlation routing, connection caps, and reconnect
resilience."""

import socket
import sys
import threading
import time

import pytest

from repro.core.protocol import InitRequest, InitResponse, Status
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net import codec
from repro.net.aio import AsyncLeaseServer, AsyncTcpTransport
from repro.net.endpoint import connect, endpoint_for
from repro.net.errors import Overloaded
from repro.net.network import NetworkConditions
from repro.net.rpc import RpcError
from repro.net.stats import OVERLOAD_ERROR
from repro.net.sharding import HashRing, default_shard_names
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.clock import Clock, seconds_to_cycles
from repro.sim.rng import DeterministicRng

#: A pool thread that dies of an exception fails the test it ran under.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")

LICENSE = "lic-aio"
POOL = 50_000


@pytest.fixture()
def server():
    ras = RemoteAttestationService(accept_any_platform=True)
    remote = SlRemote(ras)
    remote.issue_license(LICENSE, POOL)
    srv = AsyncLeaseServer(remote, port=0)
    srv.start()
    yield srv
    srv.stop()


def dial_tcp(host, port, **overrides):
    return connect(f"sl://{host}:{port}", **overrides)


def dial_async(host, port, **overrides):
    return connect(f"sl+async://{host}:{port}", **overrides)


def make_client(server, name, seed, rtt=0.004):
    machine = SgxMachine(name)
    endpoint = dial_async(
        *server.address,
        conditions=NetworkConditions(round_trip_seconds=rtt),
        timeout_seconds=5.0,
    )
    sl_local = SlLocal(machine, endpoint, KeyGenerator(DeterministicRng(seed)),
                       tokens_per_attestation=10)
    return machine, sl_local


def raw_init(endpoint, machine, slid=None, nonce=1):
    report = machine.local_authority.generate_report(1, 1, nonce=nonce)
    return endpoint.call(
        "init",
        InitRequest(slid=slid, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    )


class TestAsyncLifecycle:
    def test_raw_init_round_trip(self, server):
        machine = SgxMachine("raw")
        endpoint = dial_async(*server.address)
        response = raw_init(endpoint, machine)
        assert isinstance(response, InitResponse)
        assert response.status is Status.OK
        assert response.slid == 1
        endpoint.close()

    def test_full_lifecycle_over_async_server(self, server):
        """init -> renew (via attest) -> graceful shutdown on the loop."""
        machine, sl_local = make_client(server, "aio-client", seed=1)
        sl_local.init()
        assert sl_local.slid is not None

        blob = server.remote.license_definition(LICENSE).license_blob()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(30)) == 30
        assert sl_local.remote_renewals >= 1

        sl_local.shutdown()
        state = server.remote._clients[sl_local.slid]
        assert state.graceful_shutdown
        assert state.escrowed_root_key is not None
        assert server.requests_served >= 3  # init + renewals + shutdown

    def test_rtt_charged_virtually_per_request(self, server):
        machine, sl_local = make_client(server, "billing", seed=9, rtt=0.25)
        before = machine.clock.cycles
        sl_local.init()
        assert machine.clock.cycles - before >= seconds_to_cycles(0.25)

    def test_server_error_surfaces_without_retry(self, server):
        endpoint = dial_async(*server.address, max_attempts=5)
        machine = SgxMachine("err")
        with pytest.raises(RpcError, match="remote error"):
            endpoint.call("warp", None, clock=machine.clock)
        assert endpoint.transport.messages_sent == 1  # no retry storm
        endpoint.close()

    @pytest.mark.parametrize("dial", [dial_tcp, dial_async],
                             ids=["tcp", "async"])
    def test_unencodable_request_is_the_callers_error_not_a_tamper(
            self, server, dial):
        """A payload the codec refuses never reaches the wire: the call
        fails with an RpcError naming the encode failure, no tamper
        evidence is counted, nothing stays registered, and the *same*
        connection serves the next call."""
        endpoint = dial(*server.address, max_attempts=3)
        transport = endpoint.transport
        machine = SgxMachine("enc")
        slid = raw_init(endpoint, machine).slid
        sent, accepted = transport.messages_sent, server.connections_accepted
        clock = machine.clock.cycles
        with pytest.raises(RpcError, match="cannot encode 'renew' request.*"
                                           "not wire-encodable"):
            endpoint.call("renew", object(), clock=machine.clock)
        assert (transport.frames_rejected, transport.messages_dropped) == (0, 0)
        assert transport.messages_sent == sent  # not even counted as sent
        assert machine.clock.cycles == clock  # nor charged a round trip
        assert not getattr(transport, "_pending", None)
        assert endpoint.call("return_units", (slid, LICENSE, 0),
                             clock=machine.clock) is Status.OK
        assert server.connections_accepted == accepted  # no re-dial
        assert transport.reconnects == 0
        endpoint.close()

    def test_stop_with_open_connections_logs_nothing(self, capfd):
        """stop() with idle connections and a handler in flight: the
        reply still goes out, every pool thread is joined, every socket
        is closed, and nothing is printed."""
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        srv = AsyncLeaseServer(remote, port=0)
        entered = threading.Event()

        def slow_echo(request):
            entered.set()
            time.sleep(0.3)
            return request

        srv.handlers.register("slow_echo", slow_echo)
        srv.start()
        clients = [dial_async(*srv.address), dial_tcp(*srv.address),
                   dial_async(*srv.address)]
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            clients[0].call("slow_echo", "in flight", clock=Clock())))
        try:
            for index, endpoint in enumerate(clients):
                raw_init(endpoint, SgxMachine(f"open-{index}"))
            assert srv.open_connections == len(clients)
            caller.start()
            assert entered.wait(timeout=5)
            srv.stop()
            assert srv.open_connections == 0
            assert [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("lease-aio-")
                    and thread.name != "lease-aio-client"] == []
            caller.join(timeout=5)
            assert answers == ["in flight"]
        finally:
            for endpoint in clients:
                endpoint.close()
        captured = capfd.readouterr()
        assert (captured.out, captured.err) == ("", "")

    def test_async_tcp_cannot_bypass_the_network(self):
        endpoint = dial_async("127.0.0.1", 1)
        with pytest.raises(RpcError, match="cannot bypass"):
            endpoint.call("init", None, local=True)

    def test_unreachable_server_fails_fast_after_dial_budget(self):
        """DialError is terminal for the call: one dial budget, no
        multiplication by the per-call retry budget."""
        endpoint = dial_async("127.0.0.1", 1,  # nothing listens
                              max_attempts=2, backoff_seconds=0.001,
                              reconnect_attempts=2,
                              reconnect_backoff_seconds=0.001,
                              timeout_seconds=0.2)
        machine = SgxMachine("lost")
        with pytest.raises(RpcError, match="2 dial attempts"):
            endpoint.call("init", None, clock=machine.clock)
        assert endpoint.transport.messages_dropped == 1
        assert endpoint.transport.observed_reliability == 0.0


class TestPipelining:
    def test_many_threads_share_one_socket(self, server):
        """Racing renewals from many caller threads on ONE transport:
        grants stay conserved and every caller gets its own answer."""
        from repro.core.protocol import RenewRequest

        blob = server.remote.license_definition(LICENSE).license_blob()
        endpoint = dial_async(*server.address, timeout_seconds=10.0)
        machines = [SgxMachine(f"pipeliner-{i}") for i in range(6)]
        slids = [raw_init(endpoint, m, nonce=1).slid for m in machines]
        granted = [0] * len(machines)
        errors = []

        def worker(index):
            try:
                for _ in range(10):
                    response = endpoint.call(
                        "renew",
                        RenewRequest(slid=slids[index], license_id=LICENSE,
                                     license_blob=blob,
                                     network_reliability=1.0, health=1.0),
                        clock=machines[index].clock,
                    )
                    if response.status is Status.OK:
                        granted[index] += response.granted_units
            except Exception as exc:  # noqa: BLE001 - surfaced to main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(machines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        endpoint.close()
        assert not errors
        ledger = server.remote.ledger(LICENSE)
        outstanding = sum(ledger.outstanding.values())
        assert sum(granted) == outstanding
        assert outstanding + ledger.lost_units + ledger.available == POOL
        # All of that traffic shared a single connection.
        assert server.connections_accepted == 1

    def test_out_of_order_responses_reach_the_right_caller(self, server):
        """A slow request must not block a fast one behind it on the
        same socket — and each response lands with its own caller."""
        def slow_echo(request):
            delay, tag = request
            time.sleep(delay)
            return tag

        server.handlers.register("slow_echo", slow_echo)
        endpoint = dial_async(*server.address, timeout_seconds=10.0)
        finished = []
        results = {}
        barrier = threading.Barrier(2)

        def call(delay, tag, start_delay):
            barrier.wait(timeout=5)
            time.sleep(start_delay)
            results[tag] = endpoint.call("slow_echo", (delay, tag),
                                         clock=Clock())
            finished.append(tag)

        slow = threading.Thread(target=call, args=(0.5, "slow", 0.0))
        fast = threading.Thread(target=call, args=(0.0, "fast", 0.1))
        slow.start(), fast.start()
        slow.join(timeout=10), fast.join(timeout=10)
        endpoint.close()
        assert results == {"slow": "slow", "fast": "fast"}
        # The fast request was sent second but returned first: the
        # responses came back out of order and were corr-matched.
        assert finished == ["fast", "slow"]

    def test_strict_ordered_peer_gets_in_order_untagged_replies(self, server):
        """A TcpTransport (v1-style, no corr tags) against the async
        server: replies are written before the next frame is read, so
        position matching keeps working."""
        machine = SgxMachine("strict")
        endpoint = dial_tcp(*server.address)
        response = raw_init(endpoint, machine)
        assert response.status is Status.OK

        blob = server.remote.license_definition(LICENSE).license_blob()
        manager_machine = SgxMachine("strict-lifecycle")
        strict_endpoint = dial_tcp(*server.address)
        sl_local = SlLocal(manager_machine, strict_endpoint,
                           KeyGenerator(DeterministicRng(3)),
                           tokens_per_attestation=10)
        sl_local.init()
        manager = SlManager("app", manager_machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(20)) == 20
        sl_local.shutdown()
        endpoint.close()
        strict_endpoint.close()

    def test_untagged_request_gets_untagged_reply(self, server):
        """The server echoes a corr tag only when the client sent one —
        a v1 peer never sees v2 metadata it did not ask for."""
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(codec.frame(codec.encode_request(
                "ledger_probe", LICENSE, request_id=7
            )))
            header = _recv_exactly(sock, codec.FRAME_HEADER.size)
            data = _recv_exactly(sock, codec.frame_length(header))
        reply = codec.decode_reply(data)
        assert reply.request_id == 7
        assert codec.CORRELATION_KEY not in reply.meta


def _read_reply(sock):
    header = _recv_exactly(sock, codec.FRAME_HEADER.size)
    return codec.decode_reply(
        _recv_exactly(sock, codec.frame_length(header)))


def _request_frame(method, payload, request_id, tagged=False):
    meta = {codec.CORRELATION_KEY: request_id} if tagged else None
    return codec.frame(codec.encode_request(method, payload, request_id,
                                            meta=meta))


class TestLeaderFollowers:
    """The serving pool itself: who reads, who answers, who waits."""

    def _server(self, **options):
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        remote.issue_license(LICENSE, POOL)
        return AsyncLeaseServer(remote, port=0, **options)

    def test_half_sent_frame_does_not_pin_the_only_worker(self):
        srv = self._server(max_workers=1)
        srv.start()
        try:
            frame = _request_frame("ledger_probe", LICENSE, 41)
            with socket.create_connection(srv.address, timeout=5) as staller:
                staller.sendall(frame[:len(frame) // 2])
                machine, sl_local = make_client(srv, "beside-staller", seed=5)
                sl_local.init()
                blob = srv.remote.license_definition(LICENSE).license_blob()
                assert sl_local._fetch_lease(LICENSE, blob) is Status.OK
                sl_local.remote.close()
                # ...and the staller is answered once it finishes.
                staller.sendall(frame[len(frame) // 2:])
                assert _read_reply(staller).request_id == 41
        finally:
            srv.stop()

    def test_frame_arriving_one_byte_at_a_time_is_reassembled(self, server):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in _request_frame("ledger_probe", LICENSE, 9):
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            reply = _read_reply(sock)
        assert reply.request_id == 9 and reply.error is None
        assert server.wire_stats.frames_rejected == 0

    def test_tagged_burst_in_one_segment_runs_concurrently(self, server):
        server.handlers.register(
            "slow_echo", lambda request: (time.sleep(0.3), request)[1])
        with socket.create_connection(server.address, timeout=5) as sock:
            started = time.monotonic()
            sock.sendall(_request_frame("slow_echo", "a", 1, tagged=True)
                         + _request_frame("slow_echo", "b", 2, tagged=True))
            replies = [_read_reply(sock), _read_reply(sock)]
            elapsed = time.monotonic() - started
        assert sorted(r.meta[codec.CORRELATION_KEY] for r in replies) == [1, 2]
        assert {r.meta[codec.CORRELATION_KEY]: r.deliver()
                for r in replies} == {1: "a", 2: "b"}
        assert elapsed < 0.5  # beside each other, not 0.3 s + 0.3 s

    def test_untagged_burst_is_answered_in_order_one_at_a_time(self, server):
        events = []

        def traced(tag):
            events.append(("start", tag))
            time.sleep(0.05)
            events.append(("end", tag))
            return tag

        server.handlers.register("traced", traced)
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"".join(_request_frame("traced", tag, index)
                                  for index, tag in enumerate("abc", 1)))
            replies = [_read_reply(sock) for _ in range(3)]
        assert [r.request_id for r in replies] == [1, 2, 3]
        assert [r.deliver() for r in replies] == ["a", "b", "c"]
        # No frame was looked at before its predecessor was answered.
        assert events == [(edge, tag) for tag in "abc"
                          for edge in ("start", "end")]

    def test_blocked_handler_does_not_delay_another_connection(self):
        srv = self._server(max_workers=2)
        entered = threading.Event()

        def block(_request):
            entered.set()
            time.sleep(0.5)
            return "done"

        srv.handlers.register("block", block)
        srv.start()
        blocked, renewer = dial_tcp(*srv.address), dial_tcp(*srv.address)
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            blocked.call("block", None, clock=Clock())))
        try:
            caller.start()
            assert entered.wait(timeout=5)
            started = time.monotonic()
            for _ in range(20):
                renewer.call("ledger_probe", LICENSE, clock=Clock())
            assert time.monotonic() - started < 0.4
            assert answers == []  # the blocked call is still blocked
            caller.join(timeout=5)
            assert answers == ["done"]
        finally:
            blocked.close()
            renewer.close()
            srv.stop()

    def test_peer_that_never_reads_is_disconnected(self, monkeypatch):
        from repro.net import aio

        monkeypatch.setattr(aio, "SEND_TIMEOUT_SECONDS", 0.2)
        srv = self._server()
        srv.handlers.register("blob", lambda _request: b"x" * (1 << 20))
        srv.start()
        try:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(srv.address)
            with sock:
                sock.sendall(b"".join(_request_frame("blob", None, index)
                                      for index in range(1, 33)))
                deadline = time.monotonic() + 10
                while srv.open_connections and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert srv.open_connections == 0
            # The pool is whole again: a polite client is served.
            probe = dial_tcp(*srv.address)
            assert probe.call("_server_stats", None,
                              clock=Clock())["io"] == "async"
            probe.close()
        finally:
            srv.stop()

    def test_stop_after_a_full_pool_joins_every_worker(self):
        """A burst that holds all ``max_workers`` threads at once, then
        ``stop()``: it returns well inside its join bound and leaves no
        pool thread alive."""
        before = set(threading.enumerate())

        def workers():
            return [thread for thread in set(threading.enumerate()) - before
                    if thread.name.startswith("lease-aio-worker-")]

        srv = self._server(max_workers=4)
        together = threading.Barrier(4)
        srv.handlers.register(
            "meet", lambda tag: (together.wait(timeout=5), tag)[1])
        srv.start()
        try:
            with socket.create_connection(srv.address, timeout=5) as sock:
                sock.sendall(b"".join(
                    _request_frame("meet", tag, index, tagged=True)
                    for index, tag in enumerate("abcd", 1)))
                replies = [_read_reply(sock) for _ in range(4)]
            assert sorted(reply.deliver() for reply in replies) == list("abcd")
            assert len(workers()) == 4
        finally:
            started = time.monotonic()
            srv.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert workers() == []

    def test_counters_are_exact_under_thread_contention(self, server):
        """Many callers over several sockets with a tiny switch
        interval: a bare ``+=`` on the pool's counters loses updates."""
        callers, calls = 6, 150
        # Two callers share each endpoint; the strict-ordered one
        # serializes them itself, the pipelined ones do not.
        endpoints = [dial_async(*server.address), dial_tcp(*server.address),
                     dial_async(*server.address)]
        errors = []

        def hammer(index):
            endpoint = endpoints[index % len(endpoints)]
            try:
                for _ in range(calls):
                    endpoint.call("ledger_probe", LICENSE, clock=Clock())
            except Exception as exc:  # noqa: BLE001 - surfaced to main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        stats = endpoints[0].call("_server_stats", None, clock=Clock())
        for endpoint in endpoints:
            endpoint.close()
        assert stats["requests_served"] == callers * calls
        assert stats["errors_returned"] == 0
        assert stats["connections_accepted"] == len(endpoints)
        assert stats["wire"]["frames_decoded"] == callers * calls + 1
        assert stats["wire"]["frames_encoded"] == callers * calls


def _recv_exactly(sock, count):
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed")
        chunks += chunk
    return chunks


class TestConnectionCaps:
    def test_async_server_sheds_connections_over_the_cap(self):
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = AsyncLeaseServer(remote, port=0, max_connections=1)
        srv.start()
        try:
            holder = dial_async(*srv.address)
            machine = SgxMachine("holder")
            raw_init(holder, machine)  # occupies the only slot
            with socket.create_connection(srv.address, timeout=5) as sock:
                header = _recv_exactly(sock, codec.FRAME_HEADER.size)
                data = _recv_exactly(sock, codec.frame_length(header))
            reply = codec.decode_reply(data)
            assert reply.error is not None and OVERLOAD_ERROR in reply.error
            assert reply.meta.get("overloaded") is True
            with pytest.raises(codec.RemoteCallError, match=OVERLOAD_ERROR):
                reply.deliver()
            assert srv.connections_shed == 1
            holder.close()
        finally:
            srv.stop()

    @pytest.mark.parametrize("dial", [dial_async, dial_tcp],
                             ids=["async-async", "async-tcp"])
    def test_shed_client_sees_the_typed_overloaded_error(self, dial):
        """No frame precedes a client's first request, so the brush-off
        is the answer to that request: both clients must surface it as
        :class:`Overloaded`, not burn their retry budget on it."""
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        srv = AsyncLeaseServer(remote, port=0, max_connections=1)
        srv.start()
        try:
            holder = dial(*srv.address)
            raw_init(holder, SgxMachine("holder"))
            shed = dial(*srv.address, timeout_seconds=5.0)
            try:
                with pytest.raises(RpcError, match=OVERLOAD_ERROR) as excinfo:
                    raw_init(shed, SgxMachine("shed"))
                assert isinstance(excinfo.value.__cause__, Overloaded)
                assert shed.transport.messages_sent == 1
            finally:
                shed.close()
                holder.close()
            assert srv.connections_shed == 1
        finally:
            srv.stop()

    def test_connection_cap_validation(self):
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        with pytest.raises(ValueError, match="max_connections"):
            AsyncLeaseServer(remote, max_connections=0)
        with pytest.raises(ValueError, match="max_workers"):
            AsyncLeaseServer(remote, max_workers=0)

    def test_idle_connections_do_not_cost_server_threads(self, server):
        """The tentpole property in miniature: N idle sockets, still a
        handful of resident threads (thread-per-connection would add N)."""
        idle = []
        try:
            for _ in range(20):
                sock = socket.create_connection(server.address, timeout=5)
                idle.append(sock)
            deadline = time.time() + 5
            while server.open_connections < 20 and time.time() < deadline:
                time.sleep(0.01)
            assert server.open_connections >= 20
            probe = dial_async(*server.address)
            stats = probe.call("_server_stats", None, clock=Clock())
            probe.close()
            assert stats["io"] == "async"
            # 20 idle connections, yet nowhere near 20 server threads.
            assert stats["resident_threads"] < 15
        finally:
            for sock in idle:
                sock.close()


class TestReconnectResilience:
    def _restart_on_same_port(self, server_cls, remote, address):
        host, port = address
        srv = server_cls(remote, host=host, port=port)
        srv.start()
        return srv

    @pytest.mark.parametrize("server_cls,dial", [
        pytest.param(AsyncLeaseServer, dial_tcp, id="dial_tcp"),
        (AsyncLeaseServer, dial_async),
    ])
    def test_server_restart_mid_lifecycle_is_survived(self, server_cls,
                                                      dial):
        """Kill the server between renewals: the client re-dials on its
        reconnect budget and resumes the SLID-keyed session — without
        burning through the per-call retry budget."""
        ras = RemoteAttestationService(accept_any_platform=True)
        remote = SlRemote(ras)
        remote.issue_license(LICENSE, POOL)
        srv = server_cls(remote, port=0)
        srv.start()
        address = srv.address

        machine = SgxMachine("phoenix")
        endpoint = dial(*address, max_attempts=5,
                        backoff_seconds=0.01,
                        reconnect_attempts=6,
                        reconnect_backoff_seconds=0.02)
        sl_local = SlLocal(machine, endpoint,
                           KeyGenerator(DeterministicRng(11)),
                           tokens_per_attestation=10)
        sl_local.init()
        blob = remote.license_definition(LICENSE).license_blob()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license(LICENSE, blob)
        assert sum(manager.check(LICENSE) for _ in range(10)) == 10

        # Hard server restart: every live socket dies.
        srv.stop()
        srv = self._restart_on_same_port(server_cls, remote, address)
        try:
            # The next renewal rides the SAME SlLocal session: the SLID
            # is in every request and the server state survived, so no
            # re-init, no re-attestation — just a re-dial.
            inits_before = remote.inits_served
            assert sl_local._fetch_lease(LICENSE, blob) is Status.OK
            assert sum(manager.check(LICENSE) for _ in range(20)) == 20
            assert remote.inits_served == inits_before  # no re-init
            assert endpoint.transport.reconnects >= 1
            # The drop cost at most one in-flight attempt, not the
            # whole per-call budget.
            assert endpoint.transport.messages_dropped <= 1
            sl_local.shutdown()
        finally:
            endpoint.close()
            srv.stop()


class TestShardedAsyncFleet:
    @pytest.fixture()
    def fleet(self):
        """Two event-loop servers, each one shard of a two-shard ring."""
        names = default_shard_names(2)
        ring = HashRing(names)
        ras = RemoteAttestationService(accept_any_platform=True)
        remotes = {name: SlRemote(ras) for name in names}
        blobs = {}
        for index in range(4):
            license_id = f"lic-{index}"
            owner = ring.shard_for(license_id)
            blobs[license_id] = remotes[owner].issue_license(
                license_id, POOL
            ).license_blob()
        servers = [AsyncLeaseServer(remotes[name], port=0) for name in names]
        for srv in servers:
            srv.start()
        try:
            yield remotes, blobs, [srv.address for srv in servers], ring
        finally:
            for srv in servers:
                srv.stop()

    def test_lifecycle_across_an_event_loop_fleet(self, fleet):
        from repro.core.protocol import RenewRequest

        remotes, blobs, addresses, ring = fleet
        endpoint = connect(endpoint_for(addresses, io="async"))
        assert all(isinstance(t, AsyncTcpTransport)
                   for t in endpoint.transport.transports.values())
        machine = SgxMachine("aio-fleet")
        try:
            slid = raw_init(endpoint, machine).slid
            for license_id, blob in blobs.items():
                response = endpoint.call(
                    "renew",
                    RenewRequest(slid=slid, license_id=license_id,
                                 license_blob=blob,
                                 network_reliability=1.0, health=1.0),
                    clock=machine.clock,
                )
                assert response.status is Status.OK
                owner = remotes[ring.shard_for(license_id)]
                assert owner.ledger(license_id).outstanding[f"slid:{slid}"] \
                    == response.granted_units
        finally:
            endpoint.close()

    def test_unknown_io_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown io backend"):
            connect("sl+sharded://127.0.0.1:1?io=smoke-signals")
