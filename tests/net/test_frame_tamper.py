"""Property test: no mutilation of a v3 renewal frame is accepted.

The red-team contract in one exhaustive sweep — capture a real binary
renewal frame off a live socket, then present *every* single-byte
corruption and *every* prefix truncation of it to a live server.  The
server must reject each one (typed error envelope or connection shed),
grant zero units for any of them, count them in ``frames_rejected``,
and leave the license ledger byte-for-byte unchanged.
"""

import pytest

from repro.core.licensefile import VENDOR_SECRET, mint_license_blob
from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.net import codec
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect
from repro.redteam.proxy import CaptureProxy, CapturedFrame, inject_frames
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.clock import Clock

LICENSE = "lic-tamper"


@pytest.fixture(scope="module")
def live_capture():
    """A live server plus one v3 renewal frame captured off the wire."""
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    remote.issue_license(LICENSE, 1_000_000)
    server = AsyncLeaseServer(remote, port=0)
    server.start()
    host, port = server.address
    with CaptureProxy(host, port) as tap:
        machine = SgxMachine("capture-client")
        endpoint = connect(f"sl://{tap.host}:{tap.port}")
        try:
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            slid = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            ).slid
            response = endpoint.call(
                "renew",
                RenewRequest(slid=slid, license_id=LICENSE,
                             license_blob=mint_license_blob(
                                 LICENSE, VENDOR_SECRET),
                             network_reliability=1.0, health=1.0),
                clock=machine.clock,
            )
            assert response.status is Status.OK
        finally:
            endpoint.close()
        frames = tap.captured("c2s", method="renew")
    assert frames, "no renewal frame crossed the tap"
    payload = frames[-1].payload
    # The captured frame must be the CRC-protected format, or the
    # sweep proves nothing about it.
    assert payload[0] == codec.V3_MAGIC
    yield server, remote, payload
    server.stop()


def _mutants(payload):
    """Every single-byte corruption, then every prefix truncation."""
    for offset in range(len(payload)):
        flipped = bytearray(payload)
        flipped[offset] ^= 0xFF
        yield f"flip@{offset}", bytes(flipped)
    for length in range(len(payload)):
        yield f"trunc@{length}", payload[:length]


def _ledger_image(remote):
    ledger = remote.ledger(LICENSE)
    return (ledger.total_gcl, ledger.available, ledger.lost_units)


def test_every_mutilation_rejected_and_ledger_untouched(live_capture):
    server, remote, payload = live_capture
    host, port = server.address

    # Control: the machinery works — the *clean* frame, injected raw,
    # provokes a decodable reply from the server.
    clean = CapturedFrame(direction="c2s", index=0, payload=payload,
                          method="renew")
    control = inject_frames([clean], host, port)
    assert control[0].outcome == "reply"

    baseline = _ledger_image(remote)
    rejected_before = server.wire_stats.frames_rejected

    mutants = [
        CapturedFrame(direction="c2s", index=index, payload=mutant,
                      method=label)
        for index, (label, mutant) in enumerate(_mutants(payload))
    ]
    assert len(mutants) == 2 * len(payload)
    results = inject_frames(mutants, host, port, timeout=5.0)

    accepted = [r for r in results if r.outcome == "reply"]
    assert not accepted, (
        "server accepted mutilated frames: "
        + ", ".join(r.frame.method for r in accepted[:10])
    )
    granted = sum(r.granted_units() for r in results)
    assert granted == 0
    # Every mutant got *an* answer — rejection, not a hang.
    assert all(r.outcome in ("error", "closed") for r in results)

    assert server.wire_stats.frames_rejected > rejected_before
    assert _ledger_image(remote) == baseline, (
        "mutilated frames moved the ledger"
    )
