"""Write-ahead ledger: durable per-shard license state.

The paper charges SL-Remote for a durable commit on every grant (the
monotonic-counter-class persistence that stops a crash from
resurrecting spent units).  This module is that write:

* :class:`WriteAheadLog` — an append-only log of ledger mutations.
  Every record is length-prefixed, CRC-checked, and **sealed** with the
  same Protect/Validate construction the enclave uses for lease blobs
  (:mod:`repro.crypto.sealing`), under a key derived from the server
  secret — an attacker with disk access can neither read holdings nor
  splice forged grants into the tail.  Three fsync policies:
  ``always`` (fsync inside every append — the grant is durable before
  it is acknowledged), ``interval`` (group commit: fsync at most every
  ``fsync_interval_seconds``), ``off`` (the OS decides).

  The cipher work is kept off the grant path.  CTR keystream depends
  on (key, nonce, counter) only, so each log keeps a small memory-only
  pool of pre-drawn random nonces with their keystream
  (:func:`~repro.crypto.aes.aes128_ctr_keystreams`, one vectorised call
  per refill): sealing a record is then SHA-256 plus one wide XOR.  A
  slot is popped before it is used and never returned, so a nonce
  covers exactly one record whether or not its write succeeded.
  :meth:`WriteAheadLog.read` does the mirror image: CRC-walk the
  frames, one kernel call for the keystream of all of them, then XOR +
  hash check + decode record by record.  The bytes on disk are the
  ones the scalar :func:`_seal` / :func:`_unseal` pair (still used for
  the snapshot) writes and reads.

* Snapshot + compaction — a sealed snapshot of the full shard state
  (licenses, holdings, identity/escrow, migration tombstones) written
  atomically (tmp + fsync + rename), after which the log is truncated.
  Recovery replays snapshot + tail.

* :class:`ShardPersistence` — glues a log to one
  :class:`~repro.core.sl_remote.SlRemote`: journals every observer
  event under the lock that guards the mutation (so under ``always``
  the fsync precedes the reply), compacts in the background, and on
  startup :meth:`~ShardPersistence.recover`\\ s the shard:

  1. install the snapshot (if any);
  2. replay the log tail, dropping everything from the first record
     that fails its length/CRC/seal check (a torn write at the moment
     of death) — committed prefixes are never reinterpreted;
  3. apply the paper's pessimistic rule (Section 5.7): every sub-GCL
     outstanding at the crash is forfeited to ``lost_units`` — a unit
     that might still be executing somewhere may never be re-granted —
     while escrowed root keys survive, so *gracefully* stopped clients
     still resume with their OBK;
  4. write a fresh snapshot so the next crash replays a short tail.

Crash safety of compaction itself: the snapshot is complete and
renamed into place *before* the log is truncated, so dying between the
two steps only means a longer (idempotent) replay.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.gcl import LeaseKind
from repro.core.licensefile import VENDOR_SECRET
from repro.core.sl_remote import LicenseUnknown, SlRemote
from repro.crypto.aes import aes128_ctr_encrypt, aes128_ctr_keystreams
from repro.crypto.hashes import sha256_digest
from repro.crypto.hmac import hmac_sha256
from repro.crypto.keys import expand_key64
from repro.crypto.sealing import SealedBlob, TamperedSealError, validate

WAL_MAGIC = b"SLWAL1\n"
SNAP_MAGIC = b"SLSNAP1\n"
_FRAME_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)
_NONCE_LEN = 8  # aes128_ctr requires an 8-byte nonce
_HASH_LEN = 32  # the SHA-256 sealed behind every plaintext

#: Keystream pool geometry: slots per refill x AES blocks per slot.
#: 12 blocks seal 160 bytes of JSON + the hash; grant/return/admit
#: records are 90-115 bytes, so only the rare install_* / escrow record
#: overflows a slot.  Measured per refill (1,536 blocks, one kernel
#: call): ~0.9 ms, i.e. ~7 us per record against ~118 us for a scalar
#: 9-block seal; at 32 slots the kernel's fixed ~200 us per call still
#: shows (~12 us/record), past 128 the per-record cost is flat while
#: the one append that pays the refill stalls longer.  ~26 KB per log.
_POOL_SLOTS = 128
_POOL_BLOCKS = 12

FSYNC_POLICIES = ("always", "interval", "off")

#: Events the recovery replayer understands.  Anything else in the log
#: is counted as skipped (forward compatibility: an old binary reading
#: a newer shard's log must not misapply what it cannot interpret).
REPLAYABLE_EVENTS = (
    "issue", "revoke", "grant", "return", "writeoff",
    "escrow", "escrow_clear", "admit",
    "install_license", "install_identity", "release",
)


def derive_wal_key64(server_secret: bytes, name: str) -> int:
    """Per-shard sealing key for the log, derived from the server secret.

    64-bit to match the enclave's key size (the paper seals under
    64-bit keys); HMAC domain-separates it from every other use of the
    secret.
    """
    digest = hmac_sha256(server_secret, b"securelease-wal:" + name.encode())
    return int.from_bytes(digest[:8], "big")


def _seal(plaintext: bytes, key64: int) -> bytes:
    """Protect (Algorithm 2) with a random nonce; returns nonce || ct.

    The scalar seal: one message, :mod:`repro.crypto.aes`'s word-wide
    AES-128-CTR, nothing cached.  Snapshots are written through it, and
    it defines the format — the seal is a pure function of (plaintext,
    key, nonce).  Log records get the same bytes from
    :meth:`WriteAheadLog._seal_record`, which only takes its nonce and
    keystream from the log's pre-drawn pool instead of computing them
    here.
    """
    nonce = os.urandom(_NONCE_LEN)
    ciphertext = aes128_ctr_encrypt(
        plaintext + sha256_digest(plaintext), expand_key64(key64), nonce
    )
    return nonce + ciphertext


def _unseal(payload: bytes, key64: int) -> bytes:
    """Validate (Algorithm 3); raises TamperedSealError on any damage."""
    blob = SealedBlob(ciphertext=payload[_NONCE_LEN:],
                      nonce=payload[:_NONCE_LEN])
    return validate(blob, key64)


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` keystream bytes."""
    size = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream[:size], "big")
    ).to_bytes(size, "big")


def _fsync(handle: Any) -> None:
    """fsync a (possibly wrapped) file handle the caller has flushed.

    Fault-injection wrappers (:mod:`repro.testing.faults`) expose their
    own ``fsync`` so they can lie about durability; real files go
    through :func:`os.fsync`.
    """
    fsync = getattr(handle, "fsync", None)
    if fsync is not None:
        fsync()
    else:
        os.fsync(handle.fileno())


def _default_opener(path: str, mode: str) -> Any:
    return open(path, mode)


@dataclass(frozen=True)
class WalRecord:
    """One journalled ledger mutation."""

    seq: int
    event: str
    fields: Dict[str, Any]

    def encode(self) -> bytes:
        return json.dumps(
            {"seq": self.seq, "event": self.event, "fields": self.fields},
            separators=(",", ":"), sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "WalRecord":
        obj = json.loads(data.decode("utf-8"))
        return cls(seq=int(obj["seq"]), event=str(obj["event"]),
                   fields=dict(obj["fields"]))


class WriteAheadLog:
    """Append-only, framed, sealed log of :class:`WalRecord` entries.

    Frame layout: ``[len:4][crc32:4][nonce:8][ciphertext]`` where the
    CRC covers ``nonce || ciphertext`` (fast torn-tail detection before
    paying for the AES) and the ciphertext seals ``json || sha256``
    (integrity against deliberate tampering, not just bit rot).

    Thread-safe: appends, syncs and the keystream pool are serialised
    by one lock.  ``last_seq`` is the last record *written*;
    ``durable_seq`` is the last one an fsync that has returned covers —
    the only watermark safe to publish outside the data directory.
    """

    def __init__(
        self,
        path: str,
        key64: int,
        fsync: str = "interval",
        fsync_interval_seconds: float = 0.05,
        opener: Optional[Callable[[str, str], Any]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync_policy = fsync
        self.fsync_interval_seconds = fsync_interval_seconds
        self._key64 = key64
        self._aes_key = expand_key64(key64)
        #: (nonce, keystream) slots, touched only under ``_lock``.
        self._pool: List[Tuple[bytes, bytes]] = []
        self._opener = opener or _default_opener
        self._lock = threading.RLock()
        self.last_seq = 0
        self.durable_seq = 0
        self.append_count = 0
        self.fsync_count = 0
        self.appends_since_reset = 0
        self._dirty = False
        self._batch_local = threading.local()
        self._last_sync = time.monotonic()
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._handle = self._opener(path, "ab")
        if fresh:
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            _fsync(self._handle)

    # -- writing -------------------------------------------------------
    def append(self, event: str, fields: Dict[str, Any]) -> int:
        """Journal one mutation; returns its sequence number.

        The fsync follows the policy: ``always`` syncs on every append,
        ``interval`` only when the group-commit window has elapsed,
        ``off`` never (durability rides on the OS cache).
        """
        with self._lock:
            seq = self.last_seq + 1
            record = WalRecord(seq=seq, event=event, fields=dict(fields))
            payload = self._seal_record(record.encode())
            frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
            self._handle.write(frame + payload)
            # The one flush: every record reaches the OS here, whatever
            # the policy, so sync() only has to fsync.
            self._handle.flush()
            self.last_seq = seq
            self.append_count += 1
            self.appends_since_reset += 1
            self._dirty = True
            if getattr(self._batch_local, "depth", 0) > 0:
                pass  # durability deferred to the enclosing batch's sync
            elif self.fsync_policy == "always":
                self.sync()
            elif self.fsync_policy == "interval":
                self.sync_if_due()
            return seq

    def _seal_record(self, plaintext: bytes) -> bytes:
        """:func:`_seal`'s bytes from pooled keystream (``_lock`` held).

        The slot leaves the pool before anything is done with it, so a
        failed write burns its nonce instead of leaving it for the next
        record.  A record longer than a slot gets a fresh nonce and
        exactly its own blocks from the kernel.
        """
        body = plaintext + sha256_digest(plaintext)
        if len(body) > _POOL_BLOCKS * 16:
            nonce = os.urandom(_NONCE_LEN)
            stream, = aes128_ctr_keystreams(
                self._aes_key, [nonce], [(len(body) + 15) // 16])
        else:
            if not self._pool:
                drawn = os.urandom(_NONCE_LEN * _POOL_SLOTS)
                nonces = [drawn[i:i + _NONCE_LEN]
                          for i in range(0, len(drawn), _NONCE_LEN)]
                self._pool = list(zip(nonces, aes128_ctr_keystreams(
                    self._aes_key, nonces, [_POOL_BLOCKS] * _POOL_SLOTS)))
            nonce, stream = self._pool.pop()
        return nonce + _xor(body, stream)

    @contextlib.contextmanager
    def batch(self) -> Iterator["WriteAheadLog"]:
        """Group-commit scope: appends inside defer their fsync.

        Under the ``always`` policy every append normally pays its own
        fsync before returning; inside a batch *this thread's* appends
        only buffer, and a single sync when the outermost batch closes
        makes the whole group durable at once — N records, one disk
        sync.  The deferral is tracked per thread and the log lock is
        **not** held across the scope: batch bodies routinely take
        license locks between appends, and holding the WAL lock there
        deadlocks against the compactor, which takes license locks
        first and then needs the WAL lock to truncate.  An unrelated
        thread's append may therefore interleave and sync mid-batch;
        that only makes some of the group durable early, which is
        harmless — the closing sync still covers whatever remains.
        Nests reentrantly (only the outermost close syncs).  Under
        ``interval``/``off`` the deferral is a no-op beyond skipping
        the window check: durability still rides the maintenance tick
        or the OS cache respectively.
        """
        depth = getattr(self._batch_local, "depth", 0)
        self._batch_local.depth = depth + 1
        try:
            yield self
        finally:
            self._batch_local.depth = depth
            if depth == 0:
                with self._lock:
                    dirty = self._dirty
                if dirty and self.fsync_policy == "always":
                    self.sync()

    def sync(self) -> None:
        """Force an fsync (``append`` already flushed every record)."""
        with self._lock:
            if self._handle.closed:
                return
            _fsync(self._handle)
            self.fsync_count += 1
            self._dirty = False
            self.durable_seq = self.last_seq
            self._last_sync = time.monotonic()

    def sync_if_due(self) -> None:
        """Group-commit tick for the ``interval`` policy: sync a dirty
        log once the window has elapsed (appends and maintenance)."""
        with self._lock:
            if self._dirty and (time.monotonic() - self._last_sync
                                >= self.fsync_interval_seconds):
                self.sync()

    def reset(self) -> None:
        """Truncate to an empty log (after a snapshot superseded it).

        ``last_seq`` is preserved: sequence numbers stay monotonic for
        the life of the shard, which is what lets recovery order the
        snapshot watermark against tail records.
        """
        with self._lock:
            self._handle.close()
            self._handle = self._opener(self.path, "wb")
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            _fsync(self._handle)
            self.appends_since_reset = 0
            self._dirty = False
            # Only called once a durable snapshot holds everything up
            # to last_seq, so the (now empty) log is not behind it.
            self.durable_seq = self.last_seq

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                if self._dirty:
                    self.sync()
                self._handle.close()
            self._pool.clear()

    # -- reading -------------------------------------------------------
    @staticmethod
    def read(path: str, key64: int) -> Tuple[List[WalRecord], int, int]:
        """Read every intact record from a log file.

        Returns ``(records, good_offset, file_size)``: parsing stops at
        the first frame that is short, fails its CRC, fails seal
        validation, or does not decode — everything from that offset on
        is a torn tail the caller should truncate.  A missing file
        reads as empty.

        Two passes: the frame walk (length + CRC, before any cipher
        work) collects every frame that could be a record, one bulk
        kernel call produces all their keystream, then each record is
        XORed, checked against its embedded SHA-256 and only then
        decoded.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], 0, 0
        if data[:len(WAL_MAGIC)] != WAL_MAGIC:
            return [], 0, len(data)
        frames: List[Tuple[int, bytes]] = []  # (frame offset, payload)
        offset = len(WAL_MAGIC)
        while True:
            header = data[offset:offset + _FRAME_HEADER.size]
            if len(header) < _FRAME_HEADER.size:
                break
            length, crc = _FRAME_HEADER.unpack(header)
            start = offset + _FRAME_HEADER.size
            payload = data[start:start + length]
            if length <= _NONCE_LEN or len(payload) < length:
                break
            if zlib.crc32(payload) != crc:
                break
            frames.append((offset, payload))
            offset = start + length
        streams = aes128_ctr_keystreams(
            expand_key64(key64),
            [payload[:_NONCE_LEN] for _, payload in frames],
            [(len(payload) - _NONCE_LEN + 15) // 16 for _, payload in frames],
        )
        records: List[WalRecord] = []
        for (frame_offset, payload), stream in zip(frames, streams):
            body = _xor(payload[_NONCE_LEN:], stream)
            plaintext = body[:-_HASH_LEN]
            if (len(body) < _HASH_LEN
                    or sha256_digest(plaintext) != body[-_HASH_LEN:]):
                return records, frame_offset, len(data)
            try:
                records.append(WalRecord.decode(plaintext))
            except (ValueError, KeyError):
                return records, frame_offset, len(data)
        return records, offset, len(data)

    @staticmethod
    def truncate_tail(path: str, good_offset: int) -> None:
        """Drop a torn tail in place (recovery's repair step)."""
        with open(path, "r+b") as handle:
            handle.truncate(good_offset)
            handle.flush()
            os.fsync(handle.fileno())

    # -- export (WAL-shipped replication bootstrap) --------------------
    def export_frames(self) -> bytes:
        """The intact log tail as v3 wire frames, ready to ship.

        Re-frames every record with the wire codec's value encoding
        instead of the sealed on-disk frames: the WAL
        seal is derived from the *shard-local* key domain, which a peer
        cannot (and should not) unseal, while the wire already rides an
        authenticated fleet channel.  Syncs first so the disk read sees
        everything appended so far.
        """
        from repro.net import codec

        with self._lock:
            if not self._handle.closed:
                self.sync()
            records, _, _ = self.read(self.path, self._key64)
        out = bytearray()
        for record in records:
            out += codec.frame(codec.encode_value({
                "seq": record.seq,
                "event": record.event,
                "fields": record.fields,
            }))
        return bytes(out)

    @staticmethod
    def iter_frames(blob: bytes):
        """Yield :class:`WalRecord` entries from an exported blob.

        The inverse of :meth:`export_frames`; raises
        :class:`~repro.net.codec.CodecError` on any malformed frame —
        a bootstrap transfer is all-or-nothing, unlike the torn-tail
        tolerance of the on-disk reader.
        """
        from repro.net import codec

        offset = 0
        header_size = codec.FRAME_HEADER.size
        while offset < len(blob):
            header = blob[offset:offset + header_size]
            if len(header) < header_size:
                raise codec.CodecError("truncated bootstrap frame header")
            length = codec.frame_length(header)
            start = offset + header_size
            payload = blob[start:start + length]
            if len(payload) < length:
                raise codec.CodecError("truncated bootstrap frame body")
            obj = codec.decode_value(payload)
            yield WalRecord(seq=int(obj["seq"]), event=str(obj["event"]),
                            fields=dict(obj["fields"]))
            offset = start + length


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def write_snapshot(
    path: str,
    key64: int,
    payload: Dict[str, Any],
    opener: Optional[Callable[[str, str], Any]] = None,
    crash_point: Optional[Callable[[str], None]] = None,
) -> None:
    """Atomically persist a sealed snapshot: tmp + fsync + rename.

    A crash at any point leaves either the old snapshot or the new one,
    never a torn hybrid; ``crash_point`` (fault injection) is invoked
    at the two interesting instants.
    """
    opener = opener or _default_opener
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    sealed = _seal(data.encode("utf-8"), key64)
    frame = _FRAME_HEADER.pack(len(sealed), zlib.crc32(sealed))
    tmp = path + ".tmp"
    handle = opener(tmp, "wb")
    try:
        handle.write(SNAP_MAGIC + frame + sealed)
        handle.flush()
        _fsync(handle)
    finally:
        handle.close()
    if crash_point is not None:
        crash_point("snapshot:written")
    os.replace(tmp, path)
    if crash_point is not None:
        crash_point("snapshot:renamed")
    # Durably record the rename itself where the platform allows it.
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_snapshot(path: str, key64: int) -> Optional[Dict[str, Any]]:
    """Load a snapshot; ``None`` if missing or damaged (fall back to a
    full log replay — correctness never depends on the snapshot)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    if data[:len(SNAP_MAGIC)] != SNAP_MAGIC:
        return None
    body = data[len(SNAP_MAGIC):]
    if len(body) < _FRAME_HEADER.size:
        return None
    length, crc = _FRAME_HEADER.unpack(body[:_FRAME_HEADER.size])
    payload = body[_FRAME_HEADER.size:_FRAME_HEADER.size + length]
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    try:
        return json.loads(_unseal(payload, key64).decode("utf-8"))
    except (TamperedSealError, ValueError):
        return None


@dataclass
class RecoveryReport:
    """What :meth:`ShardPersistence.recover` did, for operators/benchmarks."""

    name: str
    snapshot_seq: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    tail_dropped_bytes: int = 0
    bytes_replayed: int = 0
    forfeited_units: int = 0
    duration_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "snapshot_seq": self.snapshot_seq,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "tail_dropped_bytes": self.tail_dropped_bytes,
            "bytes_replayed": self.bytes_replayed,
            "forfeited_units": self.forfeited_units,
            "duration_seconds": self.duration_seconds,
        }

    def marker_line(self) -> str:
        """One parseable stdout line (the recovery benchmark greps it)."""
        return (
            f"SL-Recovery {self.name}: records={self.records_replayed} "
            f"forfeited={self.forfeited_units} "
            f"dropped={self.tail_dropped_bytes} "
            f"bytes={self.bytes_replayed} "
            f"seconds={self.duration_seconds:.4f}"
        )


class ShardPersistence:
    """Durability for one :class:`SlRemote` shard: journal + recover.

    Lifecycle::

        persistence = ShardPersistence(directory, name="shard-0")
        report = persistence.recover(remote)   # replay disk into RAM
        persistence.attach(remote)             # journal from now on
        ...
        persistence.close()

    ``recover`` must run *before* any replication observers attach, so
    replayed history is not re-streamed as fresh deltas.
    """

    WAL_FILE = "ledger.wal"
    SNAP_FILE = "ledger.snap"

    def __init__(
        self,
        directory: str,
        name: str = "remote",
        server_secret: bytes = VENDOR_SECRET,
        fsync: str = "interval",
        fsync_interval_seconds: float = 0.05,
        compact_every: int = 4096,
        opener: Optional[Callable[[str, str], Any]] = None,
        fault_plan: Optional[Any] = None,
        anchor: Optional[Any] = None,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.name = name
        self.compact_every = compact_every
        # Freshness anchor (repro.storage.anchor.FreshnessAnchor): lives
        # on a path the threat model keeps away from the data directory,
        # ratcheted on every durable cut, checked before serving a
        # recovered image.  None = rollback defense not enabled.
        self.anchor = anchor
        self._key64 = derive_wal_key64(server_secret, name)
        self._fault_plan = fault_plan
        self.wal = WriteAheadLog(
            os.path.join(directory, self.WAL_FILE),
            self._key64,
            fsync=fsync,
            fsync_interval_seconds=fsync_interval_seconds,
            opener=opener,
        )
        self._snap_path = os.path.join(directory, self.SNAP_FILE)
        self._opener = opener or _default_opener
        self._remote: Optional[SlRemote] = None
        self._compact_lock = threading.Lock()
        self._stop = threading.Event()
        self._maintenance: Optional[threading.Thread] = None
        self.last_report: Optional[RecoveryReport] = None

    # -- crash points (fault injection) --------------------------------
    def _crash_point(self, point: str) -> None:
        if self._fault_plan is not None:
            self._fault_plan.reached(point)

    # -- recovery ------------------------------------------------------
    def recover(self, remote: SlRemote) -> RecoveryReport:
        """Replay snapshot + log tail into ``remote`` (Section 5.7 rules).

        Idempotent: a crash mid-recovery re-runs against the same disk
        state.  On success the log is compacted into a fresh snapshot
        so the *next* recovery replays (almost) nothing.
        """
        start = time.perf_counter()
        report = RecoveryReport(name=self.name)
        snapshot = read_snapshot(self._snap_path, self._key64)
        if snapshot is not None:
            report.snapshot_seq = int(snapshot.get("seq", 0))
            self._install_snapshot(remote, snapshot)
        records, good_offset, file_size = WriteAheadLog.read(
            self.wal.path, self._key64
        )
        if good_offset < file_size:
            # Torn tail: drop it on disk too, so a later reader can
            # never reinterpret the garbage differently.
            report.tail_dropped_bytes = file_size - good_offset
            WriteAheadLog.truncate_tail(self.wal.path, good_offset)
        report.bytes_replayed = good_offset
        last_seq = report.snapshot_seq
        for record in records:
            last_seq = max(last_seq, record.seq)
            if record.seq <= report.snapshot_seq:
                continue  # already folded into the snapshot
            if self._replay(remote, record):
                report.records_replayed += 1
            else:
                report.records_skipped += 1
        self.wal.last_seq = last_seq
        if self.anchor is not None:
            # The image has now told us how far its history reaches;
            # an anchor ahead of it means someone rolled the data
            # directory back to resurrect spent units.  Refuse before
            # forfeiture/compaction can touch anything.
            self.anchor.check(last_seq, name=self.name)
        report.forfeited_units = self._forfeit_outstanding(remote)
        # The snapshot install rebuilt every ledger's Equation 1
        # aggregates from scratch and the replay mutated them through
        # the observed maps; prove the two agree before serving — a
        # recovered shard must never price grants off drifted sums.
        for license_id in remote.license_ids():
            state = remote.license_state(license_id)
            with state.lock:
                state.ledger.audit_aggregates()
        self._remote = remote
        # Fold the recovered state into a fresh snapshot and truncate
        # the tail we just consumed (snapshot lands before truncation:
        # a crash in between only lengthens the next replay).
        self.compact()
        report.duration_seconds = time.perf_counter() - start
        self.last_report = report
        return report

    def _install_snapshot(self, remote: SlRemote,
                          snapshot: Dict[str, Any]) -> None:
        remote.install_identity(snapshot.get("identity", {}))
        for payload in snapshot.get("licenses", {}).values():
            remote.install_license_state(payload)
        moved = snapshot.get("moved", {})
        if moved:
            with remote._registry_lock:
                remote._moved.update(moved)

    def _replay(self, remote: SlRemote, record: WalRecord) -> bool:
        """Apply one journalled mutation; False when skipped."""
        event, f = record.event, record.fields
        try:
            if event == "issue":
                if f["license_id"] in remote.license_ids():
                    return False  # emitted lock-free: may race a snapshot
                remote.issue_license(
                    f["license_id"], f["total_units"],
                    kind=LeaseKind(f["kind"]),
                    tick_seconds=f.get("tick_seconds", 0.0),
                )
            elif event == "revoke":
                state = remote.license_state(f["license_id"])
                with state.lock:
                    state.definition.revoked = True
            elif event == "grant":
                self._replay_units(remote, f, direction=+1)
            elif event == "return":
                self._replay_units(remote, f, direction=-1)
            elif event == "writeoff":
                self._replay_units(remote, f, direction=-1, to_lost=True)
            elif event == "escrow":
                slid = int(f["slid"])
                remote.handle_admit(slid)
                with remote._clients_lock:
                    client = remote._clients[slid]
                    client.escrowed_root_key = f["root_key"]
                    client.graceful_shutdown = True
            elif event == "escrow_clear":
                with remote._clients_lock:
                    client = remote._clients.get(int(f["slid"]))
                    if client is None:
                        return False
                    client.escrowed_root_key = None
                    client.graceful_shutdown = False
            elif event == "admit":
                remote.handle_admit(int(f["slid"]))
            elif event == "install_license":
                remote.install_license_state(f["record"])
            elif event == "install_identity":
                remote.install_identity(f["identity"])
            elif event == "release":
                remote.release_license(f["license_id"], f.get("new_owner"))
            else:
                return False
        except (LicenseUnknown, KeyError, ValueError):
            return False
        return True

    @staticmethod
    def _replay_units(remote: SlRemote, f: Dict[str, Any],
                      direction: int, to_lost: bool = False) -> None:
        """Grant / return / write-off replay: ledger + holdings together."""
        license_id, node_key, units = f["license_id"], f["node_key"], f["units"]
        slid = int(node_key.split(":", 1)[1])
        remote.handle_admit(slid)
        state = remote.license_state(license_id)
        with remote._clients_lock:
            client = remote._clients[slid]
        with state.lock:
            ledger = state.ledger
            if direction > 0:
                ledger.outstanding[node_key] = (
                    ledger.outstanding.get(node_key, 0) + units
                )
                client.holdings[license_id] = (
                    client.holdings.get(license_id, 0) + units
                )
            else:
                held = ledger.outstanding.get(node_key, 0)
                moved = min(units, held)
                remaining = held - moved
                if remaining > 0:
                    ledger.outstanding[node_key] = remaining
                else:
                    ledger.outstanding.pop(node_key, None)
                if to_lost:
                    ledger.lost_units += moved
                client.holdings[license_id] = max(
                    0, client.holdings.get(license_id, 0) - moved
                )

    @staticmethod
    def _forfeit_outstanding(remote: SlRemote) -> int:
        """The pessimistic crash rule, shard-wide (paper Section 5.7).

        Every sub-GCL outstanding when the shard died might still be
        ticking inside some enclave we can no longer see, so it may
        never be granted again: move it all to ``lost_units``.  Escrow
        is deliberately *not* touched — a gracefully stopped client
        holds no units but must still get its OBK back.
        """
        with remote._clients_lock:
            clients = list(remote._clients.values())
        forfeited = 0
        for license_id in remote.license_ids():
            try:
                state = remote.license_state(license_id)
            except LicenseUnknown:
                continue
            with state.lock:
                pending = sum(state.ledger.outstanding.values())
                if pending > 0:
                    state.ledger.lost_units += pending
                    state.ledger.outstanding.clear()
                    forfeited += pending
                for client in clients:
                    client.holdings.pop(license_id, None)
        return forfeited

    # -- live journaling -----------------------------------------------
    def attach(self, remote: SlRemote) -> None:
        """Start journaling ``remote``'s mutations.

        Installs an observer (events arrive under the mutated state's
        lock, i.e. in ledger-commit order) and, as ``commit_group``,
        :meth:`WriteAheadLog.batch`: ``handle_renew_batch`` scopes a
        batch with it, so every journal append inside defers its fsync
        and one sync on the way out makes the batch's grants durable
        together — N renewals, one fsync.
        """
        self._remote = remote
        remote.add_observer(self._observe)
        remote.commit_group = self.wal.batch
        self._stop.clear()
        self._maintenance = threading.Thread(
            target=self._maintenance_loop,
            name=f"wal-maintenance-{self.name}",
            daemon=True,
        )
        self._maintenance.start()

    def _observe(self, event: str, fields: Dict[str, Any]) -> None:
        if event not in REPLAYABLE_EVENTS:
            return
        self._crash_point("wal:append")
        self.wal.append(event, fields)

    # -- snapshot + compaction -----------------------------------------
    def compact(self) -> None:
        """Fold the log into a fresh snapshot and truncate it.

        Excludes every writer while the cut is taken: holding
        ``_clients_lock`` → ``_registry_lock`` → every license lock (in
        sorted order, matching the documented lock hierarchy) blocks
        issue/admit/escrow/grant/install/release, so the snapshot and
        the ``last_seq`` watermark are mutually consistent and nothing
        can append between the export and the truncation.
        """
        remote = self._remote
        if remote is None:
            return
        with self._compact_lock:
            with remote._clients_lock:
                with remote._registry_lock:
                    states = dict(remote._states)
                    ordered = sorted(states)
                    for license_id in ordered:
                        states[license_id].lock.acquire()
                    try:
                        licenses = {
                            license_id: self._export_locked(
                                remote, states[license_id]
                            )
                            for license_id in ordered
                        }
                        payload = {
                            "seq": self.wal.last_seq,
                            "licenses": licenses,
                            "identity": remote.export_identity(),
                            "moved": dict(remote._moved),
                        }
                        write_snapshot(
                            self._snap_path, self._key64, payload,
                            opener=self._opener,
                            crash_point=self._crash_point,
                        )
                        self.wal.reset()
                        self._crash_point("wal:reset")
                        if self.anchor is not None:
                            # Ratchet only after the snapshot is the
                            # durable truth: advancing first would let
                            # a crash between the two refuse our own
                            # (older but honest) image.
                            self.anchor.advance(self.wal.durable_seq)
                    finally:
                        for license_id in reversed(ordered):
                            states[license_id].lock.release()

    @staticmethod
    def _export_locked(remote: SlRemote, state: Any) -> Dict[str, Any]:
        """export_license_state's body, minus its own lock acquisition
        (the compactor already holds the registry lock, which the
        public accessor would try to retake)."""
        from repro.core.sl_remote import definition_to_wire, ledger_to_wire

        license_id = state.definition.license_id
        holdings: Dict[str, int] = {}
        for slid, client in remote._clients.items():
            units = client.holdings.get(license_id, 0)
            if units:
                holdings[str(slid)] = units
        return {
            "definition": definition_to_wire(state.definition),
            "ledger": ledger_to_wire(state.ledger),
            "frozen": state.frozen,
            "holdings": holdings,
        }

    # -- export (WAL-shipped replication bootstrap) --------------------
    def export_bootstrap(
        self,
        capture: Optional[Callable[[], None]] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        """A consistent ``(snapshot payload, framed WAL tail)`` cut.

        Takes the same writer-exclusion as :meth:`compact` — every
        license lock held, WAL synced — but reads instead of
        truncating: the returned pair is exactly what a cold follower
        needs to rebuild this shard's state, and ``capture`` (invoked
        inside the quiesce) lets the replication source record the seq
        watermark that names this cut.
        """
        remote = self._remote
        if remote is None:
            raise RuntimeError(
                "export_bootstrap needs an attached remote (recover first)"
            )
        with self._compact_lock:
            with remote._clients_lock:
                with remote._registry_lock:
                    states = dict(remote._states)
                    ordered = sorted(states)
                    for license_id in ordered:
                        states[license_id].lock.acquire()
                    try:
                        self.wal.sync()
                        if capture is not None:
                            capture()
                        snapshot = read_snapshot(
                            self._snap_path, self._key64
                        ) or {}
                        frames = self.wal.export_frames()
                    finally:
                        for license_id in reversed(ordered):
                            states[license_id].lock.release()
        return snapshot, frames

    # -- maintenance ---------------------------------------------------
    def _maintenance_loop(self) -> None:
        tick = min(0.05, self.wal.fsync_interval_seconds)
        while not self._stop.wait(tick):
            try:
                if self.wal.fsync_policy == "interval":
                    self.wal.sync_if_due()
                if self.anchor is not None:
                    # Ratchet only past records the disk durably holds;
                    # an anchor ahead of the synced tail would refuse
                    # our own honest image after a crash.  last_seq is
                    # published before its fsync returns; durable_seq
                    # moves only after.
                    self.anchor.advance(self.wal.durable_seq)
                if (self.compact_every > 0
                        and self.wal.appends_since_reset
                        >= self.compact_every):
                    self.compact()
            except Exception:
                # A failing disk must not kill the maintenance thread;
                # appends will surface the same fault to callers.
                continue

    def close(self) -> None:
        """Stop journaling: final fsync, detach hooks, join maintenance."""
        self._stop.set()
        if self._maintenance is not None:
            self._maintenance.join(timeout=2.0)
            self._maintenance = None
        remote = self._remote
        if remote is not None:
            try:
                remote._observers.remove(self._observe)
            except ValueError:
                pass
            if remote.commit_group == self.wal.batch:
                remote.commit_group = None
        self.wal.close()
        if self.anchor is not None:
            self.anchor.advance(self.wal.durable_seq)


def attach_persistence(
    remote: Any,
    data_dir: str,
    name: str = "remote",
    fsync: str = "interval",
    compact_every: int = 4096,
    anchor_dir: Optional[str] = None,
) -> List[ShardPersistence]:
    """Recover-and-attach durability for a remote (single or sharded).

    The one place a :class:`ShardPersistence` is built.  A single
    :class:`~repro.core.sl_remote.SlRemote` journals under
    ``data_dir/<name>/`` (a ``--shard-of`` worker passes its ring name,
    which also derives the log's sealing key); a
    :class:`~repro.net.sharding.ShardedRemote` (duck-typed via its
    ``shards`` mapping) gets one subdirectory + log per shard name, so
    each shard's durability is independent — exactly like the
    per-process fleet.  Returns the persistences (close them on
    shutdown); each carries its ``last_report``.

    ``anchor_dir`` (kept on a *different* path than ``data_dir`` by
    the threat model) enables the stale-image rollback defense: one
    :class:`~repro.storage.anchor.FreshnessAnchor` per shard, checked
    during recovery — a rolled-back image raises
    :class:`~repro.storage.anchor.StaleImageError` here, before that
    shard attaches; shards already attached are closed again.
    """
    from repro.storage.anchor import FreshnessAnchor

    shards = getattr(remote, "shards", None)
    targets = shards if isinstance(shards, dict) else {name: remote}
    persistences: List[ShardPersistence] = []
    try:
        for shard_name, shard in targets.items():
            anchor = None
            if anchor_dir is not None:
                anchor = FreshnessAnchor(
                    os.path.join(anchor_dir, f"{shard_name}.anchor")
                )
            persistence = ShardPersistence(
                os.path.join(data_dir, shard_name), name=shard_name,
                server_secret=shard._server_secret, fsync=fsync,
                compact_every=compact_every, anchor=anchor,
            )
            persistences.append(persistence)
            persistence.recover(shard)
            persistence.attach(shard)
    except BaseException:
        for persistence in persistences:
            persistence.close()
        raise
    return persistences
