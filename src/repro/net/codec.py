"""The wire codec for the three-tier lease protocol.

Everything SL-Local and SL-Remote say to each other can be flattened to
bytes and rebuilt on the far side.  There is **one** format: a
length-prefixed binary frame holding a struct-packed envelope header, a
CRC-32 over everything after it, and tagged values — raw byte strings,
and per-dataclass field tables so a ``RenewRequest`` travels as packed
values, not repeated key strings.  Nothing is negotiated or sniffed.

Each registered message is **compiled** — all of them, the first time
one is used — into a straight-line writer and reader generated from its
dataclass declaration (:func:`message_layout`).  A value that is not of its
field's annotated type — and every plain tuple, dict and list — takes
the one general tagged path (:func:`_write` / :func:`_read`), so the
bytes emitted and accepted do not depend on which path ran.

The codec is deliberately strict: a frame must open with
:data:`V3_MAGIC` and carry a matching CRC-32, so a flipped or missing
byte raises :class:`CodecError` instead of mis-parsing; only registered
message types decode (no pickle, no arbitrary code); a message's field
count must equal this side's field table, every read is bounds-checked,
nesting is depth-limited, and trailing bytes, a map that repeats a key
and an integer of no bytes — which no encoder emits — are rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import struct
import threading
import zlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.gcl import LeaseKind
from repro.core.protocol import (
    AttestRequest, AttestResponse, BatchRequest, BatchResponse, InitRequest,
    InitResponse, MigratingNotice, RenewRequest, RenewResponse,
    ShutdownNotice, Status,
)
from repro.core.tokens import ExecutionToken
from repro.crypto.sealing import SealedBlob
from repro.sgx.attestation import AttestationReport

#: The wire revision: the one legal ``version`` of the ``encode_*`` functions.
WIRE_V3 = 3

#: Names a caller may not use as envelope metadata keys.
RESERVED_ENVELOPE_KEYS = frozenset({"v", "kind", "id", "method", "body", "error"})

#: Metadata key of a pipelining correlation id.  A client with several
#: requests in flight tags each ``{CORRELATION_KEY: n}``; the server echoes it
#: on the matching response, in any order.  Untagged: answered in order.
CORRELATION_KEY = "corr"

#: Frame header for stream transports: 4-byte big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Refuse larger frames: a corrupt length prefix must not allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

Meta = Optional[Dict[str, Any]]
Writer = Callable[[bytearray, Any], None]
Reader = Callable[[bytes, int, int], Tuple[Any, int]]


class CodecError(Exception):
    """Raised when a frame or payload cannot be (de)serialized."""


class RemoteCallError(Exception):
    """An error envelope from the far side of the wire."""


#: Message types allowed on the wire, keyed by their envelope tag.
MESSAGE_TYPES = {cls.__name__: cls for cls in (
    InitRequest, InitResponse, RenewRequest, RenewResponse, BatchRequest,
    BatchResponse, ShutdownNotice, MigratingNotice, AttestRequest,
    AttestResponse, ExecutionToken, SealedBlob, AttestationReport)}

#: Enum types allowed on the wire (encoded by value).
ENUM_TYPES = {cls.__name__: cls for cls in (Status, LeaseKind)}


def register_message_type(cls) -> None:
    """Allow an additional dataclass message on the wire, for layers (e.g.
    :mod:`repro.net.replication`) this module does not import.  Only
    registered classes decode; a second class under a taken name is rejected."""
    name = cls.__name__
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{name} is not a dataclass")
    if MESSAGE_TYPES.setdefault(name, cls) is not cls:
        raise CodecError(f"message type {name!r} already registered")


# ----------------------------------------------------------------------
# Tagged values: the one general path under every message and envelope
# ----------------------------------------------------------------------
_T_NONE, _T_FALSE, _T_TRUE = 0x00, 0x01, 0x02
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = 0x03, 0x04, 0x05, 0x06
_T_LIST, _T_TUPLE, _T_MAP = 0x07, 0x08, 0x09
_T_ENUM, _T_MSG = 0x0A, 0x0B

# A tag and the scalar or length behind it, packed and unpacked as one.
_TAG_U16 = struct.Struct(">BH")
_TAG_U32 = struct.Struct(">BI")
_TAG_F64 = struct.Struct(">Bd")
_EMPTY_MAP = _TAG_U32.pack(_T_MAP, 0)
#: What most int fields hold (counters, small ids), already encoded.
_SMALL_INTS = tuple(_TAG_U16.pack(_T_INT, 1) + bytes([value])
                    for value in range(128))
_TRUNCATED = "truncated v3 frame: a value runs past its end"
_TOO_DEEP = "v3 payload nests too deeply"


def _write(buf: bytearray, obj: Any) -> None:
    """Append ``obj``: one dict lookup on its exact type, no ladder."""
    (_WRITERS.get(type(obj)) or _writer_for(type(obj)))(buf, obj)


def _write_int(buf: bytearray, value: int) -> None:
    if 0 <= value < 128:
        buf += _SMALL_INTS[value]
        return
    length = (value.bit_length() + 8) >> 3
    if length > 0xFFFF:
        raise CodecError(f"integer of {length} bytes is not wire-encodable")
    buf += _TAG_U16.pack(_T_INT, length)
    buf += value.to_bytes(length, "big", signed=True)


def _write_str(buf: bytearray, text: str) -> None:
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise CodecError(f"string is not wire-encodable: {exc}") from exc
    buf += _TAG_U32.pack(_T_STR, len(raw))
    buf += raw


def _write_bytes(buf: bytearray, raw: bytes) -> None:
    buf += _TAG_U32.pack(_T_BYTES, len(raw))
    buf += raw


def _write_items(tag: int, each=iter) -> Writer:
    def write_items(buf: bytearray, items) -> None:
        buf += _TAG_U32.pack(tag, len(items))
        for item in each(items):
            (_WRITERS.get(type(item)) or _writer_for(type(item)))(buf, item)
    return write_items


_WRITERS: Dict[type, Writer] = {
    type(None): lambda buf, _none: buf.append(_T_NONE),
    bool: lambda buf, flag: buf.append(_T_TRUE if flag else _T_FALSE),
    int: _write_int,
    float: lambda buf, value: buf.extend(_TAG_F64.pack(_T_FLOAT, value)),
    str: _write_str,
    bytes: _write_bytes,
    list: _write_items(_T_LIST),
    tuple: _write_items(_T_TUPLE),
    dict: _write_items(_T_MAP, lambda mapping: itertools.chain.from_iterable(
        mapping.items())),  # key, value, key, value, ...
}


def _writer_for(cls: type) -> Writer:
    """The writer for a type met for the first time, remembered: a plain
    type's subclass travels as that type (an ``IntEnum`` as an int), a
    registered message through its compiled writer; nothing else encodes."""
    name = cls.__name__
    for base in (int, float, str, bytes, list, tuple, dict):
        if issubclass(cls, base):
            _WRITERS[cls] = _WRITERS[base]
            return _WRITERS[cls]
    if MESSAGE_TYPES.get(name) is not cls:
        raise CodecError(f"object of type {name} is not wire-encodable")
    return _install(cls)[0]


def encode_value(obj: Any) -> bytes:
    """Serialize one value with the tagged encoding v3 envelopes use inside:
    registered messages, enums, containers and scalars all round-trip.  The
    WAL-shipped replication bootstrap frames its records with it too."""
    buf = bytearray()
    _write(buf, obj)
    return bytes(buf)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    value, end = _read(data, 0, 0)
    if end != len(data):
        raise CodecError(f"value has {len(data) - end} trailing bytes")
    return value


#: Wire enum member -> its bytes, computed once; written by one lookup.
_ENUM_WIRE = {member: bytes([_T_ENUM]) + encode_value(name)[1:]
              + encode_value(member.value)
              for name, cls in ENUM_TYPES.items() for member in cls}
_WRITERS.update(dict.fromkeys(
    ENUM_TYPES.values(), lambda buf, member: buf.extend(_ENUM_WIRE[member])))
#: Raw enum name -> {value: member}: a dict lookup, not ``Enum.__call__``.
_ENUM_MEMBERS = {name.encode("utf-8"): {member.value: member for member in cls}
                 for name, cls in ENUM_TYPES.items()}

#: Raw message name -> compiled reader (filled by :func:`_install`).
_READERS: Dict[bytes, Reader] = {}
_COMPILING = threading.Lock()


def _read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """The tagged value at ``pos``, as ``(value, next pos)``.  Reading past
    the end — here or in a compiled reader — leaves as :class:`CodecError`;
    a slice, which would come back short in silence, is bounds-checked."""
    try:
        if depth > 64:
            raise CodecError(_TOO_DEEP)
        tag = data[pos]
        if tag == _T_INT:
            _, length = _TAG_U16.unpack_from(data, pos)
            end = pos + 3 + length
            if not length or end > len(data):
                raise CodecError(_TRUNCATED if length else "v3 integer of no bytes")
            return int.from_bytes(data[pos + 3:end], "big", signed=True), end
        if tag == _T_FLOAT:
            return _TAG_F64.unpack_from(data, pos)[1], pos + 9
        if tag in (_T_STR, _T_BYTES, _T_MSG, _T_ENUM):
            _, length = _TAG_U32.unpack_from(data, pos)
            end = pos + 5 + length
            if end > len(data):
                raise CodecError(_TRUNCATED)
            raw = data[pos + 5:end]
            if tag == _T_STR:
                return raw.decode("utf-8"), end
            if tag == _T_BYTES:
                return raw, end
            if tag == _T_MSG:
                try:
                    return (_READERS.get(raw) or _reader_for(raw))(data, end, depth)
                except (TypeError, ValueError) as exc:  # the constructor's refusal
                    raise CodecError(f"bad {raw!r} fields: {exc}") from exc
            value, end = _read(data, end, depth + 1)
            try:
                return _ENUM_MEMBERS[raw][value], end
            except (KeyError, TypeError):  # no such enum, or no such member
                raise CodecError(f"bad enum {raw!r} value {value!r}") from None
        if tag <= _T_TRUE:
            return (None, False, True)[tag], pos + 1
        if tag > _T_MAP:
            raise CodecError(f"unknown v3 value tag {tag:#x}")
        _, count = _TAG_U32.unpack_from(data, pos)
        pos += 5
        items = []
        for _ in range(2 * count if tag == _T_MAP else count):
            item, pos = _read(data, pos, depth + 1)
            items.append(item)
        if tag != _T_MAP:
            return (tuple(items) if tag == _T_TUPLE else items), pos
        try:
            mapping = dict(zip(items[::2], items[1::2]))
        except TypeError:
            raise CodecError("unhashable map key") from None
        if len(mapping) != count:
            raise CodecError("v3 map repeats a key")
        return mapping, pos
    except (IndexError, struct.error):
        raise CodecError(_TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable v3 string: {exc}") from exc


def _reader_for(raw: bytes) -> Reader:
    name = raw.decode("utf-8")
    if name not in MESSAGE_TYPES:
        raise CodecError(f"unknown message type {name!r}")
    return _install(MESSAGE_TYPES[name])[1]


# ----------------------------------------------------------------------
# Compiled messages: one writer and one reader per dataclass
# ----------------------------------------------------------------------
def message_layout(cls) -> List[Tuple[str, str, int]]:
    """``(field, annotation, run)`` per field, in wire order.

    Consecutive ``float`` fields form a fixed-width run, numbered from 1,
    that one ``struct.Struct`` packs and unpacks whole; ``run`` is 0 outside
    any.  Every other field — and a run holding anything but floats — goes
    value by value down the tagged path."""
    layout, run = [], 0
    for spec in dataclasses.fields(cls):
        kind = getattr(spec.type, "__name__", spec.type)  # a str names itself
        if kind == "float" and not (layout and layout[-1][2]):
            run += 1
        layout.append((spec.name, kind, run if kind == "float" else 0))
    return layout


def compile_message(cls) -> Tuple[Writer, Reader]:
    """Generate ``write(buf, obj)`` and ``read(data, pos, depth)`` — from
    just past the name, giving ``(obj, pos)`` — from ``cls``'s declaration.
    A pure function of the dataclass (registration is checked where values
    meet the wire), so a test can speak as a peer from another source tree."""
    name, layout = cls.__name__, message_layout(cls)
    raw = name.encode("utf-8")
    scope = {
        "CLS": cls, "CodecError": CodecError, "read": _read,
        "writer": _WRITERS.get, "writer_for": _writer_for,
        "HEADER": _TAG_U32.pack(_T_MSG, len(raw)) + raw + bytes([len(layout)]),
        "MISMATCH": f"field table mismatch for {name}: frame has %d fields, "
                    f"this side expects {len(layout)}",
    }
    out = ["def write_message(buf, obj):", " buf += HEADER"]
    inp = ["def read_message(data, pos, depth):",
           f" if data[pos] != {len(layout)}:"
           " raise CodecError(MISMATCH % data[pos])",
           f" if depth >= 64 and {bool(layout)}: raise CodecError({_TOO_DEEP!r})",
           " pos += 1; depth += 1"]
    for run, group in itertools.groupby(enumerate(layout), lambda e: e[1][2]):
        group = list(group)
        values = [f"f{index}" for index, _ in group]
        attrs = [f"obj.{field}" for _, (field, _, _) in group]
        indent = " "
        if run:  # all floats: one Struct; else each value for itself
            width, indent = 9 * len(group), "  "
            scope[f"RUN{run}"] = struct.Struct(">" + "Bd" * len(group))
            packed = ", ".join(f"{_T_FLOAT}, {attr}" for attr in attrs)
            out += [f" if {' is '.join(f'type({a})' for a in attrs)} is float:",
                    f"  buf += RUN{run}.pack({packed})", " else:"]
            inp += [f" if data[pos:pos + {width}:9] == "
                    f"{bytes([_T_FLOAT]) * len(group)!r}:",
                    f"  {', '.join(f'_, {v}' for v in values)} = "
                    f"RUN{run}.unpack_from(data, pos); pos += {width}", " else:"]
        out += [f"{indent}v = {attr}; "  # _write, without the call
                "(writer(type(v)) or writer_for(type(v)))(buf, v)"
                for attr in attrs]
        inp += [f"{indent}{v}, pos = read(data, pos, depth)" for v in values]
    inp.append(f" return CLS({', '.join(f'f{i}' for i in range(len(layout)))}), pos")
    for source in (out, inp):  # apart: the parser's peak grows with length
        exec("\n".join(source), scope)  # noqa: S102 - source built above
    return scope["write_message"], scope["read_message"]


def _install(cls) -> Tuple[Writer, Reader]:
    """Compile every registered class the first time one is needed: one
    thread's allocator — not each worker's — grows by the parser's peak."""
    with _COMPILING:
        for name, each in tuple(MESSAGE_TYPES.items()):
            if each not in _WRITERS:
                pair = compile_message(each)
                _WRITERS[each], _READERS[name.encode("utf-8")] = pair
    return _WRITERS[cls], _READERS[cls.__name__.encode("utf-8")]


# ----------------------------------------------------------------------
# Envelopes: magic, CRC-32, kind, request id, metadata, then values
# ----------------------------------------------------------------------
#: First byte of every frame; anything else is rejected before the CRC.
V3_MAGIC = 0xB3

#: Fixed envelope prefix: magic byte + CRC-32 of everything after it,
#: so a flipped byte or a cut tail is a typed :class:`CodecError` before
#: field decoding starts, never a mis-parsed value.
_V3_PREFIX = struct.Struct(">BI")
#: The prefix, then inside the CRC region: kind code + request id.
_V3_HEAD = struct.Struct(">BIBQ")

_REQUEST, _RESPONSE, _ERROR = 0, 1, 2  # envelope kind codes


@functools.lru_cache(maxsize=128, typed=True)
def _method_wire(method: Any) -> bytes:
    return encode_value(method)


def _envelope(lead: int, kind: int, method: Any, body: Any,
              request_id: int = 0, version: int = WIRE_V3, meta: Meta = None):
    """One envelope built in one buffer: ``bytes`` when bare (``lead``
    0), or behind its ``lead`` = 4-byte :data:`FRAME_HEADER`, a
    ``bytearray`` ready to send."""
    if version != WIRE_V3:
        raise CodecError(f"cannot emit wire version {version!r}; the only "
                         f"wire is v{WIRE_V3}")
    if meta and not RESERVED_ENVELOPE_KEYS.isdisjoint(meta):
        raise CodecError("metadata may not override reserved envelope keys: "
                         f"{sorted(RESERVED_ENVELOPE_KEYS.intersection(meta))}")
    buf = bytearray(lead)
    try:
        buf += _V3_HEAD.pack(V3_MAGIC, 0, kind, request_id)
    except struct.error as exc:
        raise CodecError(f"bad v3 request id {request_id!r}: {exc}") from exc
    if meta:
        _WRITERS[dict](buf, meta)
    else:
        buf += _EMPTY_MAP
    if kind == _REQUEST:
        buf += _method_wire(method)
    (_WRITERS.get(type(body)) or _writer_for(type(body)))(buf, body)
    size = len(buf) - lead
    FRAME_HEADER.pack_into(  # the CRC's slot in the prefix is a u32 too
        buf, lead + 1, zlib.crc32(memoryview(buf)[lead + _V3_PREFIX.size:]))
    if not lead:
        return bytes(buf)
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {size} bytes exceeds {MAX_FRAME_BYTES}")
    FRAME_HEADER.pack_into(buf, 0, size)
    return buf


def _open_envelope(data: bytes) -> Tuple[int, int, Dict[str, Any], Any, Any]:
    """Returns ``(kind code, request_id, meta, method, body)``; an error
    envelope's message is its ``body``."""
    if len(data) < _V3_HEAD.size:
        raise CodecError(f"truncated v3 frame: {len(data)} bytes")
    magic, crc, kind, request_id = _V3_HEAD.unpack_from(data, 0)
    if magic != V3_MAGIC:
        raise CodecError(
            f"not a v3 frame: leading byte {magic:#04x}, want {V3_MAGIC:#04x}")
    if zlib.crc32(memoryview(data)[_V3_PREFIX.size:]) != crc:
        raise CodecError("v3 frame checksum mismatch (corrupt or truncated)")
    if kind > _ERROR:
        raise CodecError(f"unknown v3 envelope kind {kind:#x}")
    meta, pos = {}, _V3_HEAD.size + len(_EMPTY_MAP)
    if not data.startswith(_EMPTY_MAP, _V3_HEAD.size):
        meta, pos = _read(data, _V3_HEAD.size, 0)
    method = None
    if kind == _REQUEST:
        method, pos = _read(data, pos, 0)
    body, pos = _read(data, pos, 0)
    if not isinstance(meta, dict):
        raise CodecError("v3 envelope metadata must be a map")
    if kind == _REQUEST and not isinstance(method, str):
        raise CodecError("request envelope missing method")
    if kind == _ERROR and not isinstance(body, str):
        raise CodecError("v3 error envelope missing message")
    if pos != len(data):
        raise CodecError(f"v3 frame has {len(data) - pos} trailing bytes")
    return kind, request_id, meta, method, body


#: The six encoders, bare (``bytes``) and framed — ``frame(encode_*(...))``
#: built in one buffer, ready to send.  Requests take ``(method, payload,
#: request_id=0, version=WIRE_V3, meta=None)``; replies the same without
#: ``method``, ``payload`` being the message for ``*_error``.  ``meta`` is
#: routing metadata (a shard, a corr id) decoders ignore unless they use it.
encode_request = functools.partial(_envelope, 0, _REQUEST)
encode_response = functools.partial(_envelope, 0, _RESPONSE, None)
encode_error = functools.partial(_envelope, 0, _ERROR, None)
frame_request = functools.partial(_envelope, 4, _REQUEST)
frame_response = functools.partial(_envelope, 4, _RESPONSE, None)
frame_error = functools.partial(_envelope, 4, _ERROR, None)


def decode_request(data: bytes) -> Tuple[str, Any, int]:
    """Returns ``(method, payload, request_id)``."""
    return decode_request_envelope(data)[:3]


def decode_request_envelope(data: bytes) -> Tuple[str, Any, int, Dict[str, Any]]:
    """Returns ``(method, payload, request_id, meta)``; without a corr
    tag in ``meta`` a pipelining server answers in strict request order."""
    kind, request_id, meta, method, body = _open_envelope(data)
    if kind != _REQUEST:
        raise CodecError("expected a request, got a reply")
    return method, body, request_id, meta


class WireReply(NamedTuple):
    """A decoded response/error envelope, metadata included.  Pipelining
    clients need the *routing* fields (``request_id``, ``meta``'s corr
    id) before they know whose error this is, so raising is deferred to
    :meth:`deliver`, in the right caller."""

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
    kind, request_id, meta, _method, body = _open_envelope(data)
    if kind == _RESPONSE:
        return WireReply("response", body, None, request_id, meta)
    if kind != _ERROR:
        raise CodecError("expected a response, got a request")
    return WireReply("error", None, body or "unspecified remote error",
                     request_id, meta)


def decode_response(data: bytes) -> Any:
    """The response payload, or :class:`RemoteCallError` for an error
    envelope (the server-side exception, stringified)."""
    return decode_reply(data).deliver()


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
