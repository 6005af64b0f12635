"""Pinned v3 frames: the bytes on the wire are a contract, not a by-product.

``data/v3_frames.json`` holds hex frames captured from the tagged-value
walker this codec started as.  Every case must still encode to exactly
those bytes and decode from them to an equal object, so an encoder
rewrite that moves one byte — or a decoder that stops accepting one —
fails here before it meets a peer.  Re-capture (only when the format
is *meant* to change) with ``PYTHONPATH=src python
tests/net/test_pinned_frames.py``.
"""

import json
import pathlib

import pytest

from repro.core.gcl import LeaseKind
from repro.core.protocol import (
    AttestRequest,
    AttestResponse,
    BatchRequest,
    BatchResponse,
    InitRequest,
    InitResponse,
    MigratingNotice,
    RenewRequest,
    RenewResponse,
    ShutdownNotice,
    Status,
)
from repro.core.tokens import ExecutionToken
from repro.crypto.sealing import SealedBlob
from repro.net import codec
from repro.net.replication import (
    BootstrapChunk,
    ReplicaBatch,
    ReplicaDelta,
    ShardSnapshot,
)
from repro.net.stats import RenewalHealth, ReplicationHealth, ServerStats
from repro.sgx.attestation import AttestationReport

PINNED = pathlib.Path(__file__).parent / "data" / "v3_frames.json"

REPORT = AttestationReport(source_measurement=2**64 - 1, target_measurement=0,
                           nonce=0x1234_5678_9ABC_DEF0, mac=77)
TOKEN = ExecutionToken(license_id="lic-a", lease_id=3, nonce=2**63, grants=4,
                       initial_grants=9, mac=2**64 - 1)
RENEW = RenewRequest(slid=7, license_id="lic-a", license_blob=b"\x00\x01\xfe\xff",
                     network_reliability=0.75, health=1.0, weight=2.5,
                     rtt_seconds=0.125, retries=3, reconnects=1)
GRANT = RenewResponse(status=Status.OK, granted_units=64, lease_kind="time",
                      tick_seconds=0.5)
NOTICE = MigratingNotice(license_id="lic-a", retry_after_seconds=0.05,
                         new_owner="shard-2=127.0.0.1:4872")
DELTA = ReplicaDelta(seq=5, event="grant", fields={
    "license_id": "lic-a", "node_key": "slid:7", "units": 8})
RENEWAL_HEALTH = RenewalHealth(
    admission=False, autotune_lag=True, tau_fraction=0.1, exhausted_served=2,
    degraded_served=1, autotune_widened=3, autotune_narrowed=4,
    licenses={"lic-a": {"grants": 5, "ewma": 1.5, "grant_hist": [0, 2, 3]}})
REPLICATION_HEALTH = ReplicationHealth(
    epoch=2, quorum=1, quorum_timeouts=0, promoted=("shard-1",),
    follows={"deltas_applied": 9},
    replicates={"seq": 12, "peers": {"shard-2": {"ack_lag": 0}}})

#: One instance of every message class ``src/`` registers.
MESSAGES = [
    InitRequest(slid=None, report=REPORT, platform_secret=2**64 - 1),
    InitResponse(status=Status.OK, slid=12, old_backup_key=None),
    RENEW,
    GRANT,
    BatchRequest(requests=(RENEW,)),
    BatchResponse(responses=(GRANT, NOTICE)),
    ShutdownNotice(slid=7, root_key=2**64 - 1),
    NOTICE,
    AttestRequest(report=REPORT, license_id="lic-a", license_blob=b"blob",
                  tokens_requested=2),
    AttestResponse(status=Status.EXHAUSTED, token=TOKEN),
    TOKEN,
    SealedBlob(ciphertext=bytes(range(32)), nonce=b"\x00" * 12),
    REPORT,
    DELTA,
    ReplicaBatch(source="shard-0", budget=64, deltas=(
        DELTA, ReplicaDelta(6, "escrow", {"slid": 1, "root_key": 42})),
        budgets={"lic-a": 32}, epoch=2),
    ShardSnapshot(source="shard-0", seq=9, budget=64,
                  licenses={"lic-a": {"frozen": False, "outstanding": {}}},
                  identity={"next_slid": 2, "clients": {}},
                  budgets={"lic-a": 16}, epoch=1),
    BootstrapChunk(source="shard-0", seq=9, budget=64,
                   snapshot={"seq": 4, "licenses": {}, "identity": {}},
                   records=b"\x00\x00\x00\x02\x09\x00", budgets={}, epoch=0),
    RENEWAL_HEALTH,
    REPLICATION_HEALTH,
    ServerStats(io="async", requests_served=10, errors_returned=1,
                connections_accepted=2, connections_shed=0, resident_threads=3,
                wire={"frames_rejected": 0, "bytes_in": 195},
                exhausted_served=None, renewal=RENEWAL_HEALTH,
                replication={"shard-0": REPLICATION_HEALTH}),
]


def _batch(members):
    return BatchRequest(requests=tuple(
        RenewRequest(slid=index, license_id=f"lic-{index}",
                     license_blob=bytes([index]) * index,
                     network_reliability=1.0 - index / 32, health=1.0,
                     retries=index)
        for index in range(members)))


def _batch_reply(members):
    return BatchResponse(responses=tuple(
        NOTICE if index == 5 else
        RenewResponse(status=Status.OK, granted_units=index * 8,
                      tick_seconds=index / 4)
        for index in range(members)))


#: Values whose runtime type is *not* the field's annotation, and the
#: plain scalars and containers at their edges.
OFF_ANNOTATION = {
    "renew_slid_none": RenewRequest(
        slid=None, license_id="", license_blob=b"", network_reliability=1,
        health=0, weight=-3, rtt_seconds=2**64 - 1, retries=-1,
        reconnects=-(2**70)),
    "renew_floats_as_text": RenewRequest(
        slid="7", license_id=b"lic", license_blob="blob",
        network_reliability=None, health=True, weight=False,
        rtt_seconds=(1.0,), retries=1.5, reconnects=[1]),
    "response_enum_as_text": RenewResponse(
        status="ok", granted_units=1.0, lease_kind=LeaseKind.TIME,
        tick_seconds=Status.REVOKED),
    "batch_slots_mixed": BatchResponse(responses=[GRANT, None, "x", NOTICE]),
    "ints": [0, 1, -1, 127, 128, -128, -129, 255, 256, 2**63, 2**64 - 1,
             -(2**64), 2**200],
    "floats": [0.0, -0.0, 1.5, -2.25, 1e308, 5e-324, float("inf")],
    "empties": ["", b"", [], (), {}, None, True, False],
    "nested": {"a": [1, (2, {"b": b"\xff", 3: None}), []],
               ("k", 1): {"deep": [[[(("x",),)]]]},
               7: Status.MIGRATING, "kind": LeaseKind.PERPETUAL},
    "text": ["ascii", "café", "☃", "\U0001f512", "nul\x00inside"],
}

_CORR = {codec.CORRELATION_KEY: 41}

#: name -> (kind, payload, request_id, meta, method); ``kind`` picks the
#: encoder and decoder the case is pinned through.
CASES = {}
for _message in MESSAGES:
    CASES[f"value/{type(_message).__name__}"] = ("value", _message, 0, None, None)
for _name, _value in OFF_ANNOTATION.items():
    CASES[f"value/{_name}"] = ("value", _value, 0, None, None)
    CASES[f"response/{_name}"] = ("response", _value, 3, None, None)
CASES.update({
    "request/renew": ("request", RENEW, 1, None, "renew"),
    "request/renew_corr": ("request", RENEW, 2**31, _CORR, "renew"),
    "request/return_units_tuple": (
        "request", (7, "lic-a", 16), 5, None, "return_units"),
    "request/probe_none_routed": (
        "request", None, 2**64 - 1, {"shard": "shard-3", "corr": 9},
        "ledger_probe"),
    "request/batch16": ("request", _batch(16), 8, None, "renew_batch"),
    "request/batch16_corr": ("request", _batch(16), 9, _CORR, "renew_batch"),
    "response/grant": ("response", GRANT, 1, None, None),
    "response/grant_corr": ("response", GRANT, 2, _CORR, None),
    "response/none": ("response", None, 0, None, None),
    "response/batch16": ("response", _batch_reply(16), 8, None, None),
    "response/batch16_corr": ("response", _batch_reply(16), 9, _CORR, None),
    "error/plain": ("error", "LicenseUnknown: lic-x", 3, None, None),
    "error/corr": ("error", "CodecError: café", 4, _CORR, None),
    "error/overloaded": ("error", "server overloaded", 0,
                         {"overloaded": True}, None),
    "error/empty_text": ("error", "", 1, None, None),
})


def _encode(kind, payload, request_id, meta, method):
    if kind == "value":
        return codec.encode_value(payload)
    if kind == "request":
        return codec.encode_request(method, payload, request_id, meta=meta)
    if kind == "response":
        return codec.encode_response(payload, request_id, meta=meta)
    return codec.encode_error(payload, request_id, meta=meta)


def _decoded(kind, payload, request_id, meta, method):
    """What decoding the case's pinned bytes must return."""
    if kind == "value":
        return payload
    if kind == "request":
        return (method, payload, request_id, meta or {})
    if kind == "response":
        return codec.WireReply("response", payload, None, request_id, meta or {})
    return codec.WireReply("error", None, payload or "unspecified remote error",
                           request_id, meta or {})


def _decode(kind, data):
    if kind == "value":
        return codec.decode_value(data)
    if kind == "request":
        return codec.decode_request_envelope(data)
    return codec.decode_reply(data)


def _same(left, right):
    """Equality that also tells 1 from 1.0 from True, and -0.0 from 0.0."""
    return left == right and repr(left) == repr(right)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_src_message_type_is_pinned():
    registered = {name for name, cls in codec.MESSAGE_TYPES.items()
                  if cls.__module__.startswith("repro.")}
    assert registered == {type(message).__name__ for message in MESSAGES}


def test_pinned_file_and_cases_name_the_same_frames(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encoder_emits_the_pinned_bytes(pinned, name):
    assert _encode(*CASES[name]).hex() == pinned[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoder_accepts_the_pinned_bytes(pinned, name):
    kind = CASES[name][0]
    rebuilt = _decode(kind, bytes.fromhex(pinned[name]))
    assert _same(rebuilt, _decoded(*CASES[name]))


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(
        {name: _encode(*case).hex() for name, case in sorted(CASES.items())},
        indent=1) + "\n")
    print(f"captured {len(CASES)} frames into {PINNED}")
