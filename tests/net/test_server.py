"""AsyncLeaseServer + TcpTransport: the strict-ordered client over real
sockets."""

import threading

import pytest

from repro.core.protocol import InitRequest, InitResponse, Status
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect
from repro.net.network import NetworkConditions
from repro.net.rpc import RpcError
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.clock import seconds_to_cycles
from repro.sim.rng import DeterministicRng


@pytest.fixture()
def server():
    ras = RemoteAttestationService(accept_any_platform=True)
    remote = SlRemote(ras)
    remote.issue_license("lic-tcp", 50_000)
    srv = AsyncLeaseServer(remote, port=0)
    srv.start()
    yield srv
    srv.stop()


def dial(host, port, **overrides):
    """A strict-ordered TCP endpoint for one server address."""
    return connect(f"sl://{host}:{port}", **overrides)


def make_client(server, name, seed, rtt=0.004):
    machine = SgxMachine(name)
    endpoint = dial(
        *server.address,
        conditions=NetworkConditions(round_trip_seconds=rtt),
        timeout_seconds=5.0,
    )
    sl_local = SlLocal(machine, endpoint, KeyGenerator(DeterministicRng(seed)),
                       tokens_per_attestation=10)
    return machine, sl_local


class TestTcpLifecycle:
    def test_raw_init_round_trip(self, server):
        machine = SgxMachine("raw")
        endpoint = dial(*server.address)
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        response = endpoint.call(
            "init",
            InitRequest(slid=None, report=report,
                        platform_secret=machine.platform_secret),
            clock=machine.clock,
        )
        assert isinstance(response, InitResponse)
        assert response.status is Status.OK
        assert response.slid == 1
        endpoint.close()

    def test_full_lifecycle_over_tcp(self, server):
        """init -> renew (via attest) -> graceful shutdown, on a real socket."""
        machine, sl_local = make_client(server, "tcp-client", seed=1)
        sl_local.init()
        assert sl_local.slid is not None

        blob = server.remote.license_definition("lic-tcp").license_blob()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license("lic-tcp", blob)
        served = sum(manager.check("lic-tcp") for _ in range(30))
        assert served == 30
        assert sl_local.remote_renewals >= 1

        sl_local.shutdown()
        state = server.remote._clients[sl_local.slid]
        assert state.graceful_shutdown
        assert state.escrowed_root_key is not None
        assert server.requests_served >= 3  # init + renewals + shutdown

    def test_two_clients_served_concurrently(self, server):
        clients = [make_client(server, f"c{i}", seed=i) for i in range(2)]
        errors = []

        def lifecycle(machine, sl_local):
            try:
                sl_local.init()
                blob = server.remote.license_definition(
                    "lic-tcp"
                ).license_blob()
                manager = SlManager(f"app@{machine.name}", machine, sl_local,
                                    tokens_per_attestation=10)
                manager.load_license("lic-tcp", blob)
                assert sum(manager.check("lic-tcp") for _ in range(20)) == 20
                sl_local.shutdown()
            except Exception as exc:  # noqa: BLE001 - reported to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=lifecycle, args=client)
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        slids = {sl_local.slid for _, sl_local in clients}
        assert len(slids) == 2  # each client got its own identity
        assert server.connections_accepted >= 2

    def test_rtt_charged_virtually_per_request(self, server):
        machine, sl_local = make_client(server, "billing", seed=9, rtt=0.25)
        before = machine.clock.cycles
        sl_local.init()
        # At least one request's virtual RTT (init may also charge RA
        # time server-side, which does NOT land on the client clock).
        assert machine.clock.cycles - before >= seconds_to_cycles(0.25)

    def test_server_error_surfaces_without_retry(self, server):
        endpoint = dial(*server.address, max_attempts=5)
        machine = SgxMachine("err")
        with pytest.raises(RpcError, match="remote error"):
            # Unknown method: the server answers with an error envelope.
            endpoint.call("warp", None, clock=machine.clock)
        assert endpoint.transport.messages_sent == 1  # no retry storm


class TestConcurrentDispatch:
    def test_racing_renewals_over_tcp_never_over_grant(self, server):
        """Many connections renew one license at once; the per-license
        lock keeps the TCP path exactly as conservative as in-process."""
        from repro.core.protocol import RenewRequest

        clients = 6
        blob = server.remote.license_definition("lic-tcp").license_blob()
        endpoints, machines, slids = [], [], []
        for index in range(clients):
            machine = SgxMachine(f"racer-{index}")
            endpoint = dial(*server.address, timeout_seconds=10.0)
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            response = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            )
            endpoints.append(endpoint)
            machines.append(machine)
            slids.append(response.slid)

        granted = [0] * clients
        errors = []

        def worker(index):
            try:
                for _ in range(10):
                    response = endpoints[index].call(
                        "renew",
                        RenewRequest(slid=slids[index], license_id="lic-tcp",
                                     license_blob=blob,
                                     network_reliability=1.0, health=1.0),
                        clock=machines[index].clock,
                    )
                    if response.status is Status.OK:
                        granted[index] += response.granted_units
            except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for endpoint in endpoints:
            endpoint.close()
        assert not errors
        ledger = server.remote.ledger("lic-tcp")
        outstanding = sum(ledger.outstanding.values())
        assert sum(granted) == outstanding  # every wire grant is tracked
        assert outstanding + ledger.lost_units + ledger.available == 50_000


class TestTypedStatusesOverTheWire:
    def test_shutdown_for_unknown_slid_is_a_status_not_an_error(self, server):
        """An unknown SLID comes back as Status.UNKNOWN_CLIENT — a typed
        protocol answer — not as a RemoteCallError error envelope."""
        from repro.core.protocol import ShutdownNotice

        endpoint = dial(*server.address)
        machine = SgxMachine("ghost")
        status = endpoint.call("shutdown",
                               ShutdownNotice(slid=4242, root_key=1),
                               clock=machine.clock)
        assert status is Status.UNKNOWN_CLIENT
        assert server.errors_returned == 0
        endpoint.close()

    def test_return_units_for_unknown_slid_is_typed(self, server):
        endpoint = dial(*server.address)
        machine = SgxMachine("ghost2")
        status = endpoint.call("return_units", (4242, "lic-tcp", 5),
                               clock=machine.clock)
        assert status is Status.UNKNOWN_CLIENT
        assert server.errors_returned == 0
        endpoint.close()

    def test_renew_for_unknown_slid_is_typed(self, server):
        from repro.core.protocol import RenewRequest

        blob = server.remote.license_definition("lic-tcp").license_blob()
        endpoint = dial(*server.address)
        machine = SgxMachine("ghost3")
        response = endpoint.call(
            "renew",
            RenewRequest(slid=4242, license_id="lic-tcp", license_blob=blob,
                         network_reliability=1.0, health=1.0),
            clock=machine.clock,
        )
        assert response.status is Status.UNKNOWN_CLIENT
        endpoint.close()


class TestTcpFailure:
    def test_unreachable_server_fails_fast_after_dial_budget(self):
        """A dead host exhausts the *dial* budget once — the per-call
        retry budget does not multiply it (DialError is not retried)."""
        endpoint = dial("127.0.0.1", 1,  # port 1: nothing listens
                               max_attempts=2, backoff_seconds=0.001,
                               reconnect_attempts=2,
                               reconnect_backoff_seconds=0.001,
                               timeout_seconds=0.2)
        machine = SgxMachine("lost")
        with pytest.raises(RpcError, match="2 dial attempts"):
            endpoint.call("init", None, clock=machine.clock)
        assert endpoint.transport.messages_dropped == 1
        assert endpoint.transport.observed_reliability == 0.0

    def test_tcp_cannot_bypass_the_network(self):
        endpoint = dial("127.0.0.1", 1)
        with pytest.raises(RpcError, match="cannot bypass"):
            endpoint.call("init", None, local=True)
