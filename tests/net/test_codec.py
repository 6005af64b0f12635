"""Wire codec tests: every protocol message survives the wire unchanged."""

import json
import re
import socket
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core.protocol import (
    BatchRequest,
    BatchResponse,
    InitRequest,
    MigratingNotice,
    RenewRequest,
    RenewResponse,
    ShutdownNotice,
    Status,
)
from repro.core.sl_remote import SlRemote, ledger_to_wire
from repro.core.tokens import ExecutionToken
from repro.net import codec
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect
from repro.net.replication import ReplicaBatch, ReplicaDelta, ShardSnapshot
from repro.net import stats as _stats  # noqa: F401 - registers its messages
from repro.net.sharding import HashRing, default_shard_names
from repro.net.transport import read_frame
from repro.sgx import RemoteAttestationService, SgxMachine

# ----------------------------------------------------------------------
# Strategies, read off the declarations the codec compiles from
# ----------------------------------------------------------------------
plain_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=24)
    | st.binary(max_size=64)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(min_size=1, max_size=24), children, max_size=4),
    max_leaves=8,
)

#: Annotation -> values of exactly that type (NaN aside: it is not equal
#: to itself, so no round trip can be asserted on it).
SCALARS = {
    "int": st.integers(min_value=-(2**70), max_value=2**70),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=24),
    "bytes": st.binary(max_size=64),
    "bool": st.booleans(),
}

#: Every message class ``src/`` registers — not the throwaway classes
#: other test modules add to the registry while pytest collects.
REGISTERED = {name: cls for name, cls in sorted(codec.MESSAGE_TYPES.items())
              if cls.__module__.startswith("repro.")}


def annotated(annotation: str):
    """A strategy for one field, from its annotation alone."""
    if annotation in SCALARS:
        return SCALARS[annotation]
    if annotation in codec.ENUM_TYPES:
        return st.sampled_from(list(codec.ENUM_TYPES[annotation]))
    if annotation in REGISTERED:
        return st.deferred(lambda: messages_of(REGISTERED[annotation]))
    optional = re.fullmatch(r"Optional\[(.+)\]", annotation)
    if optional:
        return st.none() | annotated(optional.group(1))
    variadic = re.fullmatch(r"Tuple\[(\w+), \.\.\.\]", annotation)
    if variadic:
        return st.lists(annotated(variadic.group(1)), max_size=4).map(tuple)
    if annotation == "tuple":  # a batch: messages in the slots
        return st.lists(st.deferred(lambda: batch_members),
                        max_size=4).map(tuple)
    if annotation == "object":  # AttestResponse.token
        return st.deferred(lambda: messages_of(ExecutionToken))
    # Dict[...], Any, a union alias: the wire is untyped, anything goes.
    return plain_payloads


def messages_of(cls, also=None):
    """Instances of one registered class, every field drawn from its
    annotation — or, with ``also``, from that strategy as well."""
    fields = {}
    for field, annotation, _run in codec.message_layout(cls):
        fields[field] = annotated(annotation)
        if also is not None:
            fields[field] = fields[field] | also
    return st.builds(cls, **fields)


renew_requests = messages_of(RenewRequest)
batch_members = st.one_of(renew_requests, messages_of(RenewResponse),
                          messages_of(MigratingNotice))
protocol_messages = st.one_of(*map(messages_of, REGISTERED.values()))


# ----------------------------------------------------------------------
# The round-trip property (the wire is lossless)
# ----------------------------------------------------------------------
@given(protocol_messages)
def test_every_protocol_message_survives_the_wire(message):
    rebuilt = codec.decode_value(codec.encode_value(message))
    assert rebuilt == message
    assert type(rebuilt) is type(message)


@pytest.mark.parametrize("name", REGISTERED)
@given(data=st.data())
def test_registered_message_round_trips(name, data):
    """One case per registered class, so registering a message is all it
    takes to have it round-tripped — bare, and inside both envelopes."""
    message = data.draw(messages_of(REGISTERED[name]))
    rebuilt = codec.decode_value(codec.encode_value(message))
    assert rebuilt == message and type(rebuilt) is REGISTERED[name]
    assert codec.decode_request(
        codec.encode_request("call", message, 3)) == ("call", message, 3)
    assert codec.decode_response(codec.encode_response(message, 3)) == message


def tagged_reference(message) -> bytes:
    """``message`` as the general tagged path alone would write it: the
    header, then every field through :func:`codec.encode_value`."""
    name = type(message).__name__.encode("utf-8")
    layout = codec.message_layout(type(message))
    return b"".join(
        [bytes([codec._T_MSG]), struct.pack(">I", len(name)), name,
         bytes([len(layout)])]
        + [codec.encode_value(getattr(message, field))
           for field, _annotation, _run in layout])


@pytest.mark.parametrize("name", REGISTERED)
@given(data=st.data())
def test_compiled_and_tagged_paths_agree_off_annotation(name, data):
    """Fields holding values of *any* wire type — a None in an int, an
    int in a float run, a list in a str — encode to exactly the bytes
    the tagged path writes, and decode back to the same message."""
    message = data.draw(messages_of(REGISTERED[name], also=plain_payloads))
    encoded = codec.encode_value(message)
    assert encoded == tagged_reference(message)
    rebuilt = codec.decode_value(encoded)
    assert repr(rebuilt) == repr(message)  # 1 is not 1.0 is not True


@given(plain_payloads)
def test_plain_payloads_survive_the_wire(payload):
    assert codec.decode_value(codec.encode_value(payload)) == payload


@given(protocol_messages, st.integers(min_value=0, max_value=2**31))
def test_request_envelope_round_trip(message, request_id):
    data = codec.encode_request("renew", message, request_id)
    method, payload, rid = codec.decode_request(data)
    assert (method, payload, rid) == ("renew", message, request_id)


@given(protocol_messages)
def test_response_envelope_round_trip(message):
    assert codec.decode_response(codec.encode_response(message, 7)) == message


# ----------------------------------------------------------------------
# Strictness: one format, unknown types, error envelopes, framing
# ----------------------------------------------------------------------
def json_envelope(version: int, kind: str = "request") -> bytes:
    """A v1/v2 envelope byte for byte as the deleted JSON codec emitted
    it (``version=3`` is the mislabeled envelope that codec refused)."""
    envelope = {"v": version, "kind": kind, "id": 9}
    if kind == "request":
        envelope.update(method="renew", body=None)
    elif kind == "response":
        envelope.update(body=None)
    else:
        envelope.update(error="boom")
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8")


def test_status_decodes_to_the_singleton():
    rebuilt = codec.decode_value(codec.encode_value(Status.EXHAUSTED))
    assert rebuilt is Status.EXHAUSTED  # `is` comparisons keep working


def test_wrong_version_rejected():
    """The leading byte is the format's whole version field: a frame
    that opens with anything else is refused by name, whatever its CRC
    says."""
    data = bytearray(codec.encode_request("init", None))
    data[0] ^= 0x01
    with pytest.raises(codec.CodecError, match="not a v3 frame"):
        codec.decode_request(bytes(data))
    with pytest.raises(codec.CodecError, match="not a v3 frame"):
        codec.decode_reply(bytes(data))


def test_unknown_message_type_rejected():
    name = b"Pickle"
    data = (bytes([codec._T_MSG]) + struct.pack(">I", len(name)) + name
            + b"\x00")
    with pytest.raises(codec.CodecError, match="unknown message type"):
        codec.decode_value(data)


def test_unregistered_object_rejected():
    class Rogue:
        pass

    with pytest.raises(codec.CodecError, match="not wire-encodable"):
        codec.encode_value(Rogue())


def test_impostor_sharing_a_registered_name_rejected():
    """Registration is by class, not by name: a foreign class that
    happens to be called ``RenewRequest`` does not ride the real one's
    field table."""
    impostor = type("RenewRequest", (), {})
    with pytest.raises(codec.CodecError, match="not wire-encodable"):
        codec.encode_value(impostor())


def test_register_message_type_requires_a_dataclass():
    class NotADataclass:
        pass

    with pytest.raises(codec.CodecError, match="not a dataclass"):
        codec.register_message_type(NotADataclass)
    assert "NotADataclass" not in codec.MESSAGE_TYPES


def hand_laid_envelope(kind: int, request_id: int, *values: bytes) -> bytes:
    """An envelope with empty meta around already-encoded ``values``,
    laid out by hand and given a *valid* CRC: what a peer's own encoder
    — hostile, or built from another source tree — could send."""
    region = codec._V3_HEAD.pack(0, 0, kind, request_id)[
        codec._V3_PREFIX.size:] + codec.encode_value({}) + b"".join(values)
    return codec._V3_PREFIX.pack(codec.V3_MAGIC, zlib.crc32(region)) + region


def _checksummed(body: bytes) -> bytes:
    return hand_laid_envelope(1, 7, body)


def test_lone_surrogate_is_a_codec_error_on_every_encoder():
    """A str that UTF-8 cannot carry fails typed, wherever it sits."""
    bad = "lic-\ud800"
    request = RenewRequest(slid=1, license_id=bad, license_blob=b"",
                           network_reliability=1.0, health=1.0)
    for encode in (
        lambda: codec.encode_value(bad),
        lambda: codec.encode_value({"k": [bad]}),
        lambda: codec.encode_request("renew", request),
        lambda: codec.encode_request(bad, None),
        lambda: codec.encode_response(request),
        lambda: codec.encode_error(bad),
        lambda: codec.frame_request("renew", request, 1),
    ):
        with pytest.raises(codec.CodecError, match="not wire-encodable"):
            encode()


def test_map_repeating_a_key_rejected():
    """``{1: 2, 1: 3}`` on the wire used to decode, silently, to the
    one-entry ``{1: 3}``; no encoder emits it."""
    one, two, three = (codec.encode_value(n) for n in (1, 2, 3))
    twice = bytes([codec._T_MAP]) + struct.pack(">I", 2) \
        + one + two + one + three
    for decode, data in ((codec.decode_value, twice),
                         (codec.decode_reply, _checksummed(twice))):
        with pytest.raises(codec.CodecError, match="repeats a key"):
            decode(data)
    honest = bytes([codec._T_MAP]) + struct.pack(">I", 2) \
        + one + two + two + three
    assert codec.decode_value(honest) == {1: 2, 2: 3}


def test_integer_of_no_bytes_rejected():
    """A ``T_INT`` of length 0 used to decode to 0, which travels as
    one byte; as a bare value and as a compiled message's int field."""
    empty = bytes([codec._T_INT]) + struct.pack(">H", 0)
    with pytest.raises(codec.CodecError, match="integer of no bytes"):
        codec.decode_value(empty)
    with pytest.raises(codec.CodecError, match="integer of no bytes"):
        codec.decode_reply(_checksummed(empty))
    zero = codec.encode_value(0)
    shutdown = codec.encode_value(ShutdownNotice(slid=0, root_key=9))
    assert shutdown.count(zero) == 1
    with pytest.raises(codec.CodecError, match="integer of no bytes"):
        codec.decode_value(shutdown.replace(zero, empty))


def test_garbage_frame_rejected():
    with pytest.raises(codec.CodecError):
        codec.decode_response(b"\xff\xfenot json")


def test_error_envelope_raises_remote_call_error():
    data = codec.encode_error("LicenseUnknown: lic-x", 3)
    with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
        codec.decode_response(data)


def test_shutdown_none_response_is_encodable():
    assert codec.decode_response(codec.encode_response(None)) is None


def test_frame_length_cap():
    with pytest.raises(codec.CodecError, match="exceeds"):
        codec.frame_length(codec.FRAME_HEADER.pack(codec.MAX_FRAME_BYTES + 1))


def test_frame_round_trip():
    data = codec.encode_request("renew", ("a", 1))
    framed = codec.frame(data)
    assert codec.frame_length(framed[:4]) == len(data)
    assert framed[4:] == data


# ----------------------------------------------------------------------
# What is left of the v1/v2/v3 compatibility matrix: one cell
# ----------------------------------------------------------------------
#: Every revision this wire ever had.  Only the last is spoken; the
#: ``version`` keyword survives on the encoders with that one legal
#: value.
HISTORICAL_VERSIONS = (1, 2, 3)


class TestVersionCompatMatrix:
    """v3 is the wire.  The old JSON revisions can neither be emitted
    (the encoders refuse the version up front) nor decoded (their
    frames do not open with the magic byte)."""

    @pytest.mark.parametrize("version", (1, 2))
    def test_requests_from_json_versions_are_rejected(self, version):
        with pytest.raises(codec.CodecError, match="not a v3 frame"):
            codec.decode_request(json_envelope(version))
        for kind in ("response", "error"):
            with pytest.raises(codec.CodecError, match="not a v3 frame"):
                codec.decode_reply(json_envelope(version, kind))

    def test_requests_from_v3_decode(self):
        data = codec.encode_request("renew", ("lic", 3), request_id=9,
                                    version=codec.WIRE_V3)
        assert data[0] == codec.V3_MAGIC
        assert codec.decode_request(data) == ("renew", ("lic", 3), 9)

    @pytest.mark.parametrize("version", HISTORICAL_VERSIONS)
    def test_responses_from_any_supported_version_decode(self, version):
        """Supported means v3 and nothing else: it decodes, and the
        retired revisions are refused before a byte is produced."""
        if version != codec.WIRE_V3:
            with pytest.raises(codec.CodecError, match="cannot emit"):
                codec.encode_response(Status.OK, 5, version=version)
            return
        data = codec.encode_response(Status.OK, 5, version=version)
        assert codec.decode_response(data) is Status.OK

    @pytest.mark.parametrize("version", HISTORICAL_VERSIONS)
    def test_error_envelopes_from_any_supported_version(self, version):
        if version != codec.WIRE_V3:
            with pytest.raises(codec.CodecError, match="cannot emit"):
                codec.encode_error("boom", 1, version=version)
            return
        data = codec.encode_error("boom", 1, version=version)
        with pytest.raises(codec.RemoteCallError, match="boom"):
            codec.decode_response(data)

    def test_unsupported_emission_rejected_up_front(self):
        for version in (0, 1, 2, 99):
            with pytest.raises(codec.CodecError, match="cannot emit"):
                codec.encode_request("init", None, version=version)
            with pytest.raises(codec.CodecError, match="cannot emit"):
                codec.encode_response(None, version=version)
            with pytest.raises(codec.CodecError, match="cannot emit"):
                codec.encode_error("boom", version=version)

    def test_future_version_rejected_on_decode(self):
        """A later revision would announce itself with a different
        leading byte; this side refuses it instead of guessing."""
        data = bytearray(codec.encode_request("init", None))
        data[0] = codec.V3_MAGIC + 1
        with pytest.raises(codec.CodecError, match="not a v3 frame"):
            codec.decode_request(bytes(data))

    def test_decoder_tolerates_unknown_metadata_keys(self):
        """Unknown metadata keys (e.g. a shard routing hint) never
        break a decoder."""
        data = codec.encode_request(
            "renew", ("lic", 1),
            meta={"shard": "shard-3", "trace_id": "abc123"},
        )
        method, payload, _rid, meta = codec.decode_request_envelope(data)
        assert (method, payload) == ("renew", ("lic", 1))
        assert meta == {"shard": "shard-3", "trace_id": "abc123"}

    # -- the replication/migration message rows ------------------------
    REPLICATION_ROWS = [
        ("replicate", ReplicaBatch(source="shard-0", budget=64, deltas=(
            ReplicaDelta(1, "grant", {"license_id": "lic",
                                      "node_key": "slid:1", "units": 8}),
            ReplicaDelta(2, "escrow", {"slid": 1, "root_key": 42}),
        ))),
        ("sync_snapshot", ShardSnapshot(
            source="shard-0", seq=9, budget=64,
            licenses={"lic": {"frozen": False}},
            identity={"next_slid": 2, "clients": {}},
        )),
        ("promote", "shard-0"),
    ]

    @pytest.mark.parametrize("method,payload", REPLICATION_ROWS,
                             ids=[row[0] for row in REPLICATION_ROWS])
    def test_fleet_internal_requests_cross_any_supported_version(
            self, method, payload):
        """The replication surface rides the same envelope as client
        traffic, so every message must decode."""
        data = codec.encode_request(method, payload, request_id=5)
        rebuilt_method, rebuilt, rid = codec.decode_request(data)
        assert (rebuilt_method, rid) == (method, 5)
        assert rebuilt == payload
        assert type(rebuilt) is type(payload)

    def test_migrating_notice_response_crosses_any_supported_version(self):
        """The typed retry-after envelope a frozen license answers with
        — stale routers must understand it."""
        notice = MigratingNotice(license_id="lic", retry_after_seconds=0.05,
                                 new_owner="shard-2=127.0.0.1:4872")
        rebuilt = codec.decode_response(codec.encode_response(notice, 7))
        assert rebuilt == notice
        assert rebuilt.status is Status.MIGRATING


# ----------------------------------------------------------------------
# Correlation metadata: the pipelining contract on the wire
# ----------------------------------------------------------------------
class TestCorrelationMetadata:
    """Corr ids ride the free-form envelope metadata: a tagged request
    is echoed back tagged, an untagged one stays untagged."""

    def test_request_corr_id_round_trips(self):
        data = codec.encode_request("renew", ("lic", 1), request_id=4,
                                    meta={codec.CORRELATION_KEY: 77})
        method, payload, rid, meta = codec.decode_request_envelope(data)
        assert (method, payload, rid) == ("renew", ("lic", 1), 4)
        assert meta[codec.CORRELATION_KEY] == 77

    def test_untagged_request_has_empty_corr(self):
        data = codec.encode_request("renew", ("lic", 1), request_id=4)
        *_, meta = codec.decode_request_envelope(data)
        assert codec.CORRELATION_KEY not in meta

    def test_response_corr_id_round_trips(self):
        data = codec.encode_response(Status.OK, 9,
                                     meta={codec.CORRELATION_KEY: 13})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 13
        assert reply.request_id == 9
        assert reply.deliver() is Status.OK

    def test_error_reply_is_routable_before_it_raises(self):
        """decode_reply must NOT raise on an error envelope — the
        pipelining reader needs the corr id to route the error to the
        right caller first; deliver() raises at the call site."""
        data = codec.encode_error("LicenseUnknown: lic-x", 3,
                                  meta={codec.CORRELATION_KEY: 5})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 5
        assert reply.error is not None
        with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
            reply.deliver()

    def test_meta_cannot_clobber_reserved_envelope_keys(self):
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_request("renew", None, meta={"method": "steal"})
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_response(None, meta={"body": "fake"})

    def test_untagged_reply_routes_by_request_id(self):
        """Strict-ordered interop: a reply to an untagged request
        decodes with empty meta, so the pipelining reader falls back to
        request-id matching."""
        reply = codec.decode_reply(codec.encode_response(None, 8))
        assert reply.meta == {}
        assert reply.request_id == 8  # the fallback routing key

    @given(protocol_messages, st.integers(min_value=1, max_value=2**31))
    def test_tagged_round_trip_is_lossless(self, message, corr):
        data = codec.encode_response(message, corr,
                                     meta={codec.CORRELATION_KEY: corr})
        reply = codec.decode_reply(data)
        assert reply.deliver() == message
        assert reply.meta[codec.CORRELATION_KEY] == corr


# ----------------------------------------------------------------------
# The v3 binary framing: lossless, and hostile to corruption
# ----------------------------------------------------------------------
class TestBinaryWireV3:
    """The binary format must be lossless — and provably resistant to
    corruption: every flipped byte and every truncation raises a typed
    :class:`~repro.net.codec.CodecError`, never a mis-parse."""

    @given(protocol_messages, st.integers(min_value=0, max_value=2**31))
    def test_request_frames_round_trip(self, message, request_id):
        data = codec.encode_request("renew", message, request_id,
                                    version=codec.WIRE_V3)
        assert data[0] == codec.V3_MAGIC
        method, payload, rid = codec.decode_request(data)
        assert (method, rid) == ("renew", request_id)
        assert payload == message
        assert type(payload) is type(message)

    @given(protocol_messages)
    def test_response_frames_round_trip(self, message):
        rebuilt = codec.decode_response(
            codec.encode_response(message, 7, version=codec.WIRE_V3)
        )
        assert rebuilt == message
        assert type(rebuilt) is type(message)

    @given(plain_payloads)
    def test_plain_payloads_round_trip(self, payload):
        data = codec.encode_response(payload, 1, version=codec.WIRE_V3)
        assert codec.decode_response(data) == payload

    def test_error_frames_are_routable_then_raise(self):
        data = codec.encode_error("LicenseUnknown: lic-x", 3,
                                  version=codec.WIRE_V3,
                                  meta={codec.CORRELATION_KEY: 5})
        reply = codec.decode_reply(data)
        assert reply.meta[codec.CORRELATION_KEY] == 5
        with pytest.raises(codec.RemoteCallError, match="LicenseUnknown"):
            reply.deliver()

    def test_corr_metadata_rides_v3(self):
        data = codec.encode_request("renew", ("lic", 1), 4,
                                    version=codec.WIRE_V3,
                                    meta={codec.CORRELATION_KEY: 77})
        method, payload, rid, meta = codec.decode_request_envelope(data)
        assert (method, payload, rid) == ("renew", ("lic", 1), 4)
        assert meta[codec.CORRELATION_KEY] == 77

    def test_meta_cannot_clobber_reserved_envelope_keys(self):
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode_request("renew", None, version=codec.WIRE_V3,
                                 meta={"method": "steal"})

    def test_bytes_travel_raw_not_hex(self):
        """The format's point: byte fields ship as bytes, so the whole
        frame undercuts even the blob's bare hex spelling."""
        blob = bytes(range(256))
        request = RenewRequest(slid=1, license_id="lic", license_blob=blob,
                               network_reliability=1.0, health=1.0)
        frame = codec.encode_request("renew", request)
        assert blob in frame
        assert len(frame) < len(blob.hex())

    def test_json_envelope_claiming_v3_rejected(self):
        with pytest.raises(codec.CodecError, match="not a v3 frame"):
            codec.decode_request(json_envelope(codec.WIRE_V3))

    # -- the hostile sweeps --------------------------------------------
    def _sample_frame(self) -> bytes:
        request = RenewRequest(slid=7, license_id="lic-corrupt",
                               license_blob=b"\x00\x01\xfe\xff",
                               network_reliability=0.5, health=1.0)
        return codec.encode_request(
            "renew_batch", BatchRequest(requests=(request,)), 9,
            version=codec.WIRE_V3, meta={codec.CORRELATION_KEY: 3},
        )

    def test_every_single_byte_corruption_is_detected(self):
        data = self._sample_frame()
        for offset in range(len(data)):
            corrupt = bytearray(data)
            corrupt[offset] ^= 0xFF
            with pytest.raises(codec.CodecError):
                codec.decode_request(bytes(corrupt))

    def test_every_offset_truncation_is_detected(self):
        data = self._sample_frame()
        for end in range(1, len(data)):
            with pytest.raises(codec.CodecError):
                codec.decode_request(data[:end])

    def test_trailing_garbage_is_detected(self):
        data = self._sample_frame()
        with pytest.raises(codec.CodecError):
            codec.decode_request(data + b"\x00")

    @given(protocol_messages, st.data())
    def test_fuzzed_corruption_never_misparses(self, message, data_strategy):
        """Randomized reinforcement of the deterministic sweep: any
        byte, any new value — decode raises or returns the original."""
        data = codec.encode_response(message, 2, version=codec.WIRE_V3)
        offset = data_strategy.draw(
            st.integers(min_value=0, max_value=len(data) - 1)
        )
        value = data_strategy.draw(st.integers(min_value=0, max_value=255))
        corrupt = bytearray(data)
        corrupt[offset] = value
        try:
            rebuilt = codec.decode_response(bytes(corrupt))
        except (codec.CodecError, codec.RemoteCallError):
            return
        assert rebuilt == message  # the write happened to be a no-op


# ----------------------------------------------------------------------
# Live servers: one format on the socket, old formats earn typed errors
# ----------------------------------------------------------------------
def _exchange(address, payload: bytes) -> bytes:
    """Send one framed payload on a fresh socket; return the reply's."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(codec.frame(payload))
        return read_frame(sock)


def _list_keyed_map_frame() -> bytes:
    """A well-formed request whose body is a map keyed by a *list*.  No
    Python dict can hold one, so encode a tuple key, retag it as a list
    and recompute the checksum."""
    data = bytearray(codec.encode_request("ledger_probe", {("k",): 1}, 1))
    retag = bytes([codec._T_MAP]) + struct.pack(">I", 1)
    data[data.rindex(retag + bytes([codec._T_TUPLE])) + len(retag)] = \
        codec._T_LIST
    body = bytes(data[codec._V3_PREFIX.size:])
    return codec._V3_PREFIX.pack(codec.V3_MAGIC, zlib.crc32(body)) + body


class TestLiveServersSpeakOneFormat:
    @pytest.mark.parametrize("server_cls", [AsyncLeaseServer], ids=["async"])
    def test_old_format_frames_earn_typed_v3_errors(self, server_cls):
        """A v2-JSON request and a frame with a wrong magic byte are
        each answered with a v3 error envelope naming the CodecError,
        counted in ``frames_rejected``, and leave the ledger untouched
        — then the same connectionless probe with a good frame is
        served, so neither rejection wedged the server."""
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        remote.issue_license("lic-old", 10_000)
        server = server_cls(remote, port=0)
        address = server.start()
        try:
            before = codec.encode_value(ledger_to_wire(remote.ledger("lic-old")))
            wrong_magic = bytearray(codec.encode_request("ledger_probe", None))
            wrong_magic[0] ^= 0xFF
            hostile = [json_envelope(2), bytes(wrong_magic)]
            for count, payload in enumerate(hostile, start=1):
                data = _exchange(address, payload)
                assert data[0] == codec.V3_MAGIC
                reply = codec.decode_reply(data)
                assert reply.kind == "error"
                assert "CodecError" in reply.error
                assert "not a v3 frame" in reply.error
                snapshot = server.wire_stats.snapshot()
                assert snapshot["frames_rejected"] == count
            after = codec.encode_value(ledger_to_wire(remote.ledger("lic-old")))
            assert after == before
            assert remote.renewals_served == 0
            good = codec.decode_reply(_exchange(
                address, codec.encode_request("ledger_probe", None, 1)
            ))
            assert good.kind == "response"
            assert server.wire_stats.snapshot()["frames_rejected"] == 2
        finally:
            server.stop()

    @pytest.mark.parametrize("server_cls", [AsyncLeaseServer], ids=["async"])
    def test_unhashable_map_key_is_a_codec_error(self, server_cls):
        """A CRC-valid frame whose map is keyed by a list is a typed
        rejection, not a ``TypeError`` that kills the connection: the
        same socket is answered again on its next frame."""
        hostile = _list_keyed_map_frame()
        with pytest.raises(codec.CodecError, match="unhashable map key"):
            codec.decode_request_envelope(hostile)
        remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
        server = server_cls(remote, port=0)
        address = server.start()
        try:
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.settimeout(5.0)
                sock.sendall(codec.frame(hostile))
                reply = codec.decode_reply(read_frame(sock))
                assert reply.kind == "error"
                assert "CodecError: unhashable map key" in reply.error
                assert server.wire_stats.snapshot()["frames_rejected"] == 1
                sock.sendall(codec.frame(
                    codec.encode_request("ledger_probe", None, 2)))
                assert codec.decode_reply(read_frame(sock)).kind == "response"
        finally:
            server.stop()

    def test_sharded_fleet_splits_a_batch_by_owner_across_live_servers(self):
        """One client fleet renews across two live shard servers with a
        single coalesced batch the router splits by ring owner."""
        names = default_shard_names(2)
        ring = HashRing(names)
        ras = RemoteAttestationService(accept_any_platform=True)
        remotes = {name: SlRemote(ras) for name in names}
        blobs = {}
        for index in range(6):
            license_id = f"lic-{index}"
            owner = ring.shard_for(license_id)
            blobs[license_id] = remotes[owner].issue_license(
                license_id, 10_000
            ).license_blob()
        assert len({ring.shard_for(lid) for lid in blobs}) == 2
        servers = {name: AsyncLeaseServer(remotes[name], port=0)
                   for name in names}
        authority = ",".join(
            "{}:{}".format(*servers[name].start()) for name in names
        )
        endpoint = connect(f"sl+sharded://{authority}")
        machine = SgxMachine("two-shards")
        try:
            report = machine.local_authority.generate_report(1, 1, nonce=1)
            init = endpoint.call(
                "init",
                InitRequest(slid=None, report=report,
                            platform_secret=machine.platform_secret),
                clock=machine.clock, stats=machine.stats,
            )
            batch = BatchRequest(requests=tuple(
                RenewRequest(slid=init.slid, license_id=license_id,
                             license_blob=blob,
                             network_reliability=1.0, health=1.0)
                for license_id, blob in sorted(blobs.items())
            ))
            reply = endpoint.call("renew_batch", batch, clock=machine.clock)
            assert isinstance(reply, BatchResponse)
            assert len(reply.responses) == len(blobs)
            assert all(slot.status is Status.OK for slot in reply.responses)
            # Every grant landed on its ring owner's ledger.
            for license_id in blobs:
                owner = remotes[ring.shard_for(license_id)]
                outstanding = owner.ledger(license_id).outstanding
                assert outstanding.get(f"slid:{init.slid}", 0) > 0
        finally:
            endpoint.close()
            for server in servers.values():
                server.stop()


# ----------------------------------------------------------------------
# Field tables are exact: both sides run the same dataclasses
# ----------------------------------------------------------------------
class TestTelemetryFieldCompat:
    """``RenewRequest`` carries trailing telemetry fields.  Both ends
    of every connection are built from one source tree, so a frame
    whose field count differs from this side's table — shorter or
    longer — is corruption or a foreign peer, and is refused."""

    def _request(self, **overrides):
        fields = dict(slid=7, license_id="lic-tele", license_blob=b"\x01bl",
                      network_reliability=0.75, health=0.9, weight=2.0,
                      rtt_seconds=0.125, retries=3, reconnects=1)
        fields.update(overrides)
        return RenewRequest(**fields)

    def _frame_from_skewed_peer(self, skewed, message) -> bytes:
        """A ``renew`` request as a peer whose ``RenewRequest`` is the
        ``skewed`` dataclass would frame it: that peer's compiled
        writer, inside a hand-laid envelope."""
        body = bytearray()
        write, _read = codec.compile_message(skewed)
        write(body, message)
        return hand_laid_envelope(0, 4, codec.encode_value("renew"), body)

    @given(message=renew_requests)
    def test_v3_round_trip_preserves_telemetry(self, message):
        data = codec.encode_request("renew", message, request_id=1,
                                    version=codec.WIRE_V3)
        _, rebuilt, _ = codec.decode_request(data)
        assert rebuilt == message

    def test_shorter_field_table_than_ours_is_fatal(self):
        """A frame whose table stops at ``weight`` carries six packed
        values.  Filling the tail from defaults would let a truncating
        attacker (or a stale binary) silently zero the telemetry, so it
        raises."""
        import dataclasses as dc

        legacy = dc.make_dataclass(
            "RenewRequest",
            [("slid", int), ("license_id", str), ("license_blob", bytes),
             ("network_reliability", float), ("health", float),
             ("weight", float, dc.field(default=1.0))],
        )
        message = self._request()
        old = legacy(slid=message.slid, license_id=message.license_id,
                     license_blob=message.license_blob,
                     network_reliability=message.network_reliability,
                     health=message.health, weight=message.weight)
        data = self._frame_from_skewed_peer(legacy, old)
        with pytest.raises(codec.CodecError, match="field table"):
            codec.decode_request(data)

    def test_longer_field_table_than_ours_stays_fatal(self):
        """The reverse skew — a frame carrying *more* fields than this
        side knows — would silently drop peer data, so it raises."""
        import dataclasses as dc

        future = dc.make_dataclass(
            "RenewRequest",
            [(f.name, f.type) if f.default is dc.MISSING
             else (f.name, f.type, dc.field(default=f.default))
             for f in dc.fields(RenewRequest)]
            + [("congestion_window", int, dc.field(default=0))],
        )
        message = self._request()
        new = future(**{f.name: getattr(message, f.name)
                        for f in dc.fields(RenewRequest)})
        data = self._frame_from_skewed_peer(future, new)
        with pytest.raises(codec.CodecError, match="field table"):
            codec.decode_request(data)
