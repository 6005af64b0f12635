"""The wire codec for the three-tier lease protocol.

Everything SL-Local and SL-Remote say to each other can be flattened to
bytes and rebuilt on the far side.  There is **one** format: a
length-prefixed binary frame holding a struct-packed envelope header, a
CRC-32 over everything after it, raw byte strings, and per-dataclass
field tables so a ``RenewRequest`` travels as packed values, not
repeated key strings.  Every frame a peer accepts has passed the
checksum; nothing is negotiated and nothing is sniffed.

The codec is deliberately strict:

* a frame must open with :data:`V3_MAGIC` and carry a matching CRC-32,
  so a flipped or missing byte raises :class:`CodecError` instead of
  mis-parsing — and can never steer a peer onto a weaker format,
  because there is none;
* only registered message types decode (no pickle, no arbitrary code) —
  the untrusted network may corrupt a lease request but cannot smuggle
  objects into the enclave simulation;
* a message's field count must equal this side's field table, every
  read is bounds-checked, nesting is depth-limited, and trailing bytes
  are rejected.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import zlib
from typing import Any, Dict, NamedTuple, Optional, Tuple

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
from repro.sgx.attestation import AttestationReport

#: The wire revision: the only legal value of the ``version`` keyword
#: the ``encode_*`` functions keep for their callers.
WIRE_V3 = 3

#: Names a caller may not use as envelope metadata keys.
RESERVED_ENVELOPE_KEYS = frozenset({"v", "kind", "id", "method", "body", "error"})

#: Metadata key carrying a pipelining correlation id.  A client that
#: keeps several requests in flight on one connection tags each request
#: ``{CORRELATION_KEY: n}``; a pipelining-aware server echoes the tag on
#: the matching response, which may arrive out of order.  An untagged
#: request is answered in strict order: responses match requests by
#: position.
CORRELATION_KEY = "corr"

#: Frame header for stream transports: 4-byte big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Refuse frames above this size (a corrupt length prefix must not make
#: the server allocate gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(Exception):
    """Raised when a frame or payload cannot be (de)serialized."""


class RemoteCallError(Exception):
    """An error envelope from the far side of the wire."""


#: Message types allowed on the wire, keyed by their envelope tag.
MESSAGE_TYPES = {
    cls.__name__: cls
    for cls in (
        InitRequest,
        InitResponse,
        RenewRequest,
        RenewResponse,
        BatchRequest,
        BatchResponse,
        ShutdownNotice,
        MigratingNotice,
        AttestRequest,
        AttestResponse,
        ExecutionToken,
        SealedBlob,
        AttestationReport,
    )
}


def register_message_type(cls) -> None:
    """Allow an additional dataclass message on the wire.

    Used by higher layers (e.g. :mod:`repro.net.replication`) that
    define fleet-internal message types without this module importing
    them — the registry stays explicit either way: only registered
    classes ever decode, and re-registering a different class under a
    taken name is rejected.
    """
    name = cls.__name__
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{name} is not a dataclass")
    existing = MESSAGE_TYPES.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"message type {name!r} already registered")
    MESSAGE_TYPES[name] = cls


#: Enum types allowed on the wire (encoded by value).
ENUM_TYPES = {cls.__name__: cls for cls in (Status, LeaseKind)}


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def _check_version(version: int) -> None:
    if version != WIRE_V3:
        raise CodecError(
            f"cannot emit wire version {version!r}; the only wire is "
            f"v{WIRE_V3}"
        )


def encode_request(method: str, payload: Any, request_id: int = 0,
                   version: int = WIRE_V3,
                   meta: Optional[Dict[str, Any]] = None) -> bytes:
    """A request envelope carrying one protocol message.

    ``meta`` attaches routing metadata (e.g. ``{"shard": "shard-2"}``
    or a pipelining ``{CORRELATION_KEY: n}``) that decoders ignore
    unless they route on it.
    """
    _check_version(version)
    return _encode_v3("request", request_id, meta, method=method, body=payload)


def decode_request(data: bytes) -> Tuple[str, Any, int]:
    """Returns ``(method, payload, request_id)``."""
    method, payload, request_id, _meta = decode_request_envelope(data)
    return method, payload, request_id


def decode_request_envelope(data: bytes) -> Tuple[str, Any, int, Dict[str, Any]]:
    """Returns ``(method, payload, request_id, meta)``.

    ``meta`` is the envelope's free-form metadata — without a
    correlation tag in it, a pipelining server answers the client in
    strict request order.
    """
    kind, request_id, meta, method, body, _error = _decode_v3(data)
    if kind != "request":
        raise CodecError(f"expected a request, got {kind!r}")
    return method, body, request_id, meta


def encode_response(payload: Any, request_id: int = 0,
                    version: int = WIRE_V3,
                    meta: Optional[Dict[str, Any]] = None) -> bytes:
    _check_version(version)
    return _encode_v3("response", request_id, meta, body=payload)


def encode_error(message: str, request_id: int = 0,
                 version: int = WIRE_V3,
                 meta: Optional[Dict[str, Any]] = None) -> bytes:
    _check_version(version)
    return _encode_v3("error", request_id, meta, error=message)


class WireReply(NamedTuple):
    """A decoded response/error envelope, metadata included.

    Pipelining clients need the *routing* fields (``request_id``,
    ``meta``'s correlation id) before they know which caller an error
    belongs to, so this form defers raising; :meth:`deliver` converts to
    the classic payload-or-raise contract in the right caller.
    """

    kind: str  # "response" | "error"
    payload: Any  # decoded body (None for errors)
    error: Optional[str]  # server-side error text (None for responses)
    request_id: int
    meta: Dict[str, Any]

    def deliver(self) -> Any:
        if self.kind == "error":
            raise RemoteCallError(self.error or "unspecified remote error")
        return self.payload


def decode_reply(data: bytes) -> WireReply:
    """Decode a response **or** error envelope without raising on errors."""
    kind, request_id, meta, _method, body, error = _decode_v3(data)
    if kind == "error":
        return WireReply(kind="error", payload=None,
                         error=error or "unspecified remote error",
                         request_id=request_id, meta=meta)
    if kind != "response":
        raise CodecError(f"expected a response, got {kind!r}")
    return WireReply(kind="response", payload=body, error=None,
                     request_id=request_id, meta=meta)


def decode_response(data: bytes) -> Any:
    """Returns the response payload; raises :class:`RemoteCallError` for
    error envelopes (the server-side exception, stringified)."""
    return decode_reply(data).deliver()


# ----------------------------------------------------------------------
# The binary format: struct-packed envelopes with field-table payloads
# ----------------------------------------------------------------------
#: First byte of every frame; anything else is rejected before the CRC
#: is even computed.
V3_MAGIC = 0xB3

#: Fixed envelope prefix: magic byte + CRC-32 of everything after it.
#: The CRC is what turns "corrupt frame" into a typed :class:`CodecError`
#: instead of a silently mis-parsed value — any single flipped byte or
#: truncated tail fails the checksum before field decoding even starts.
_V3_PREFIX = struct.Struct(">BI")

#: Envelope body prefix inside the CRC region: kind code + request id.
_V3_BODY = struct.Struct(">BQ")

_V3_KIND_CODES = {"request": 0, "response": 1, "error": 2}
_V3_KIND_NAMES = {code: kind for kind, code in _V3_KIND_CODES.items()}

# Value tags for the recursive binary payload encoding.
_T_NONE, _T_FALSE, _T_TRUE = 0x00, 0x01, 0x02
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = 0x03, 0x04, 0x05, 0x06
_T_LIST, _T_TUPLE, _T_MAP = 0x07, 0x08, 0x09
_T_ENUM, _T_MSG = 0x0A, 0x0B

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: Message name -> ordered field names.  Both sides derive the same
#: column order from the dataclass definition, so only *values* travel.
_FIELD_TABLES: Dict[str, Tuple[str, ...]] = {}


def _field_table(cls) -> Tuple[str, ...]:
    table = _FIELD_TABLES.get(cls.__name__)
    if table is None:
        table = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_TABLES[cls.__name__] = table
    return table


def _write_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    buf += _U32.pack(len(raw))
    buf += raw


def _write_value(buf: bytearray, obj: Any) -> None:
    if obj is None:
        buf.append(_T_NONE)
    elif obj is True:
        buf.append(_T_TRUE)
    elif obj is False:
        buf.append(_T_FALSE)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        length = (obj.bit_length() + 8) // 8 or 1
        if length > 0xFFFF:
            raise CodecError(f"integer of {length} bytes is not wire-encodable")
        buf.append(_T_INT)
        buf += _U16.pack(length)
        buf += obj.to_bytes(length, "big", signed=True)
    elif isinstance(obj, float):
        buf.append(_T_FLOAT)
        buf += _F64.pack(obj)
    elif isinstance(obj, str):
        buf.append(_T_STR)
        _write_str(buf, obj)
    elif isinstance(obj, bytes):
        buf.append(_T_BYTES)
        buf += _U32.pack(len(obj))
        buf += obj
    elif isinstance(obj, (list, tuple)):
        buf.append(_T_TUPLE if isinstance(obj, tuple) else _T_LIST)
        buf += _U32.pack(len(obj))
        for item in obj:
            _write_value(buf, item)
    elif isinstance(obj, dict):
        buf.append(_T_MAP)
        buf += _U32.pack(len(obj))
        for key, value in obj.items():
            _write_value(buf, key)
            _write_value(buf, value)
    elif isinstance(obj, enum.Enum):
        name = type(obj).__name__
        if name not in ENUM_TYPES:
            raise CodecError(f"enum {name} is not wire-encodable")
        buf.append(_T_ENUM)
        _write_str(buf, name)
        _write_value(buf, obj.value)
    else:
        name = type(obj).__name__
        if MESSAGE_TYPES.get(name) is not type(obj):
            raise CodecError(f"object of type {name} is not wire-encodable")
        table = _field_table(type(obj))
        buf.append(_T_MSG)
        _write_str(buf, name)
        buf += _U8.pack(len(table))
        for field_name in table:
            _write_value(buf, getattr(obj, field_name))


class _Reader:
    """Bounds-checked cursor over a v3 envelope body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise CodecError(
                f"truncated v3 frame: wanted {count} bytes at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def read_str(self) -> str:
        (length,) = _U32.unpack(self.take(_U32.size))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable v3 string: {exc}") from exc

    def read_value(self, depth: int = 0) -> Any:
        if depth > 64:
            raise CodecError("v3 payload nests too deeply")
        (tag,) = self.take(1)
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            (length,) = _U16.unpack(self.take(_U16.size))
            return int.from_bytes(self.take(length), "big", signed=True)
        if tag == _T_FLOAT:
            (value,) = _F64.unpack(self.take(_F64.size))
            return value
        if tag == _T_STR:
            return self.read_str()
        if tag == _T_BYTES:
            (length,) = _U32.unpack(self.take(_U32.size))
            return self.take(length)
        if tag in (_T_LIST, _T_TUPLE):
            (count,) = _U32.unpack(self.take(_U32.size))
            items = [self.read_value(depth + 1) for _ in range(count)]
            return tuple(items) if tag == _T_TUPLE else items
        if tag == _T_MAP:
            (count,) = _U32.unpack(self.take(_U32.size))
            try:
                return {self.read_value(depth + 1): self.read_value(depth + 1)
                        for _ in range(count)}
            except TypeError:
                raise CodecError("unhashable map key") from None
        if tag == _T_ENUM:
            name = self.read_str()
            cls = ENUM_TYPES.get(name)
            value = self.read_value(depth + 1)
            if cls is None:
                raise CodecError(f"unknown enum type {name!r}")
            try:
                return cls(value)
            except ValueError as exc:
                raise CodecError(f"bad {name} value {value!r}") from exc
        if tag == _T_MSG:
            name = self.read_str()
            cls = MESSAGE_TYPES.get(name)
            if cls is None:
                raise CodecError(f"unknown message type {name!r}")
            table = _field_table(cls)
            (count,) = _U8.unpack(self.take(_U8.size))
            if count != len(table):
                raise CodecError(
                    f"field table mismatch for {name}: frame has {count} "
                    f"fields, this side expects {len(table)}"
                )
            values = [self.read_value(depth + 1) for _ in range(count)]
            try:
                return cls(**dict(zip(table, values)))
            except (TypeError, ValueError) as exc:
                raise CodecError(f"bad {name} fields: {exc}") from exc
        raise CodecError(f"unknown v3 value tag {tag:#x}")


def encode_value(obj: Any) -> bytes:
    """Serialize one value with the v3 binary value codec.

    The public face of the recursive tagged encoding v3 envelopes use
    internally: registered messages, enums, containers, and scalars all
    round-trip.  Higher layers (e.g. the WAL-shipped replication
    bootstrap) use it to frame record streams without inventing a
    second binary format.
    """
    buf = bytearray()
    _write_value(buf, obj)
    return bytes(buf)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    reader = _Reader(data)
    value = reader.read_value()
    if reader.pos != len(data):
        raise CodecError(
            f"value has {len(data) - reader.pos} trailing bytes"
        )
    return value


def _encode_v3(kind: str, request_id: int, meta: Optional[Dict[str, Any]],
               method: Optional[str] = None, body: Any = None,
               error: Optional[str] = None) -> bytes:
    if meta:
        clobbered = RESERVED_ENVELOPE_KEYS.intersection(meta)
        if clobbered:
            raise CodecError(
                f"metadata may not override reserved envelope keys: "
                f"{sorted(clobbered)}"
            )
    buf = bytearray(_V3_BODY.size)
    try:
        _V3_BODY.pack_into(buf, 0, _V3_KIND_CODES[kind], request_id)
    except struct.error as exc:
        raise CodecError(f"bad v3 request id {request_id!r}: {exc}") from exc
    _write_value(buf, dict(meta) if meta else {})
    if kind == "request":
        _write_value(buf, method)
        _write_value(buf, body)
    elif kind == "response":
        _write_value(buf, body)
    else:
        _write_value(buf, error)
    return _V3_PREFIX.pack(V3_MAGIC, zlib.crc32(buf) & 0xFFFFFFFF) + buf


def _decode_v3(data: bytes) -> Tuple[str, int, Dict[str, Any],
                                     Optional[str], Any, Optional[str]]:
    """Returns ``(kind, request_id, meta, method, body, error)``."""
    if len(data) < _V3_PREFIX.size + _V3_BODY.size:
        raise CodecError(f"truncated v3 frame: {len(data)} bytes")
    magic, crc = _V3_PREFIX.unpack_from(data, 0)
    if magic != V3_MAGIC:
        raise CodecError(
            f"not a v3 frame: leading byte {magic:#04x}, want {V3_MAGIC:#04x}"
        )
    region = data[_V3_PREFIX.size:]
    if zlib.crc32(region) & 0xFFFFFFFF != crc:
        raise CodecError("v3 frame checksum mismatch (corrupt or truncated)")
    kind_code, request_id = _V3_BODY.unpack_from(region, 0)
    kind = _V3_KIND_NAMES.get(kind_code)
    if kind is None:
        raise CodecError(f"unknown v3 envelope kind {kind_code:#x}")
    reader = _Reader(region)
    reader.pos = _V3_BODY.size
    meta = reader.read_value()
    if not isinstance(meta, dict):
        raise CodecError("v3 envelope metadata must be a map")
    method = body = error = None
    if kind == "request":
        method = reader.read_value()
        if not isinstance(method, str):
            raise CodecError("request envelope missing method")
        body = reader.read_value()
    elif kind == "response":
        body = reader.read_value()
    else:
        error = reader.read_value()
        if not isinstance(error, str):
            raise CodecError("v3 error envelope missing message")
    if reader.pos != len(region):
        raise CodecError(
            f"v3 frame has {len(region) - reader.pos} trailing bytes"
        )
    return kind, request_id, meta, method, body, error


# ----------------------------------------------------------------------
# Framing for stream transports
# ----------------------------------------------------------------------
def frame(data: bytes) -> bytes:
    """Length-prefix a serialized envelope for a byte stream."""
    if len(data) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return FRAME_HEADER.pack(len(data)) + data


def frame_length(header: bytes) -> int:
    """Parse a frame header; validates the advertised length."""
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return length
