"""CaptureProxy + inject_frames against a live in-process server.

Fast red-team plumbing tests: no subprocess fleet, just a
:class:`AsyncLeaseServer` on a real socket with the tap in front of it.
"""

import pytest

from repro.core.licensefile import VENDOR_SECRET, mint_license_blob
from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.net import codec
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect
from repro.net.errors import TamperedFrame
from repro.net.rpc import RpcError
from repro.redteam.proxy import CaptureProxy, inject_frames
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.testing.faults import NetFaultPlan

LICENSE = "lic-proxy"


@pytest.fixture()
def server():
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    remote.issue_license(LICENSE, 100_000)
    server = AsyncLeaseServer(remote, port=0)
    server.start()
    yield server
    server.stop()


def call_init(endpoint, machine):
    report = machine.local_authority.generate_report(1, 1, nonce=1)
    return endpoint.call(
        "init",
        InitRequest(slid=None, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    ).slid


def call_renew(endpoint, machine, slid):
    return endpoint.call(
        "renew",
        RenewRequest(slid=slid, license_id=LICENSE,
                     license_blob=mint_license_blob(LICENSE, VENDOR_SECRET),
                     network_reliability=1.0, health=1.0),
        clock=machine.clock,
    )


def run_client(url, renewals=3):
    machine = SgxMachine("proxy-client")
    endpoint = connect(url)
    try:
        slid = call_init(endpoint, machine)
        return [call_renew(endpoint, machine, slid) for _ in range(renewals)]
    finally:
        endpoint.close()


class TestCapture:
    def test_proxy_is_transparent_and_records_both_directions(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            responses = run_client(f"sl://{tap.host}:{tap.port}")
        assert all(r.status is Status.OK for r in responses)
        renews = tap.captured("c2s", method="renew")
        assert len(renews) == 3
        replies = tap.captured("s2c")
        assert replies, "no server frames crossed the tap"
        # Capture order is globally monotonic across directions.
        indices = [f.index for f in tap.captured()]
        assert indices == sorted(indices)

    def test_captured_frames_replayable_at_the_same_server(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            run_client(f"sl://{tap.host}:{tap.port}", renewals=2)
            frames = tap.captured("c2s", method="renew")
        results = inject_frames(frames, host, port)
        assert [r.outcome for r in results] == ["reply"] * len(frames)

    def test_injection_at_a_dead_port_reports_closed(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            run_client(f"sl://{tap.host}:{tap.port}", renewals=1)
            frames = tap.captured("c2s", method="renew")
        server.stop()
        results = inject_frames(frames, host, port, timeout=2.0)
        assert all(r.outcome == "closed" for r in results)
        assert sum(r.granted_units() for r in results) == 0


class TestTamper:
    def test_c2s_corruption_surfaces_as_server_rejection(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2")
            # Let init (frame 1 of a dial) through, corrupt every
            # frame after it.
            tap.set_plan("c2s", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError) as excinfo:
                run_client(url, renewals=1)
            assert "CodecError" in str(excinfo.value)
            assert tap.plan("c2s").tampered() >= 1
        stats = server.wire_stats.snapshot()
        assert stats["frames_rejected"] >= 1

    def test_s2c_corruption_surfaces_as_tampered_frame(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2")
            tap.set_plan("s2c", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError) as excinfo:
                run_client(url, renewals=1)
            assert isinstance(excinfo.value.__cause__, TamperedFrame)

    def test_clean_call_succeeds_after_the_plan_is_lifted(self, server):
        host, port = server.address
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2"
                   f"&reconnect_backoff=0.05")
            tap.set_plan("c2s", NetFaultPlan(corrupt_every=1, start_after=1))
            with pytest.raises(RpcError):
                run_client(url, renewals=1)
            tap.set_plan("c2s", None)
            responses = run_client(url, renewals=1)
            assert responses[0].status is Status.OK

    def test_duplicated_reply_is_rejected_not_booked(self, server):
        """A reply delivered twice shifts every later reply by one.  The
        strict-ordered client must refuse the stale frame by its request
        id instead of booking renew #1's grant a second time (and then
        handing the next caller a reply of the wrong type)."""
        host, port = server.address
        machine = SgxMachine("dup-client")
        with CaptureProxy(host, port) as tap:
            # s2c frame 1 answers init, frame 2 answers renew #1.
            tap.set_plan("s2c", NetFaultPlan(duplicate_nth=2))
            endpoint = connect(f"sl://{tap.host}:{tap.port}"
                               f"?timeout=5&max_attempts=2"
                               f"&reconnect_attempts=2")
            try:
                slid = call_init(endpoint, machine)
                first = call_renew(endpoint, machine, slid)
                assert first.status is Status.OK
                with pytest.raises(RpcError) as excinfo:
                    call_renew(endpoint, machine, slid)
                assert isinstance(excinfo.value.__cause__, TamperedFrame)
                assert "request id" in str(excinfo.value)
                transport = endpoint.transport
                assert transport.frames_rejected == 1
                # The connection was dropped; the next call dials a
                # fresh one and is answered by its own reply.
                third = call_renew(endpoint, machine, slid)
                assert third.status is Status.OK
                assert transport.reconnects == 1
                assert transport.frames_rejected == 1
            finally:
                endpoint.close()
        # The client booked two grants; the server also paid out the
        # renewal whose reply was refused — never fewer than booked.
        booked = first.granted_units + third.granted_units
        outstanding = server.remote.ledger(LICENSE).outstanding
        assert outstanding[f"slid:{slid}"] >= booked

    def test_no_first_frame_corruption_downgrades_the_client(self, server):
        """Downgrade regression: whichever byte of a client's first
        frame an attacker flips, the call fails typed and everything
        the client sends afterwards is still a v3 frame — there is no
        weaker format to be steered onto."""
        host, port = server.address
        machine = SgxMachine("downgrade-client")
        with CaptureProxy(host, port) as tap:
            url = (f"sl://{tap.host}:{tap.port}"
                   f"?timeout=5&max_attempts=2&reconnect_attempts=2")
            # A clean dial measures the first frame.
            endpoint = connect(url)
            try:
                call_init(endpoint, machine)
            finally:
                endpoint.close()
            first_frame = tap.captured("c2s")[0].payload
            for offset in range(len(first_frame)):
                mark = len(tap.captured())
                tap.set_plan("c2s", NetFaultPlan(corrupt_nth=1,
                                                 corrupt_offset=offset))
                endpoint = connect(url)
                try:
                    with pytest.raises(RpcError, match="CodecError"):
                        call_init(endpoint, machine)
                    slid = call_init(endpoint, machine)
                    assert call_renew(endpoint, machine, slid).status \
                        is Status.OK
                finally:
                    endpoint.close()
                sent = [f for f in tap.captured()[mark:]
                        if f.direction == "c2s"]
                assert len(sent) == 3, offset
                assert all(f.payload[0] == codec.V3_MAGIC for f in sent), \
                    offset
        rejected = server.wire_stats.snapshot()["frames_rejected"]
        assert rejected == len(first_frame)
