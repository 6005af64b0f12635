"""Deterministic fault injection: storage faults and wire faults.

The WAL's crash-safety claims ("committed prefixes survive, torn tails
are dropped, compaction can die between snapshot and truncate") are
only worth anything if tests can actually produce those disk states.
This module simulates them *deterministically* — no signal racing, no
``kill -9`` timing luck:

* :class:`FaultPlan` — declarative schedule: crash on the Nth
  ``write()`` / Nth ``fsync()`` / at a named crash point, optionally
  landing a torn prefix of the dying write, optionally rolling the
  file back to the last honoured fsync (what a power cut does to an
  OS write-back cache), optionally turning ``fsync`` into a liar that
  reports success while committing nothing.

* :class:`FaultyFile` / :class:`FaultyOpener` — file-object wrappers
  injected through :class:`~repro.storage.wal.WriteAheadLog`'s
  ``opener`` hook.  A triggered fault leaves the on-disk bytes exactly
  as the plan prescribes and raises :class:`SimulatedCrash`, after
  which the test re-runs recovery against the survivor file.

* :class:`NetFaultPlan` — the same declarative idea one layer up, on
  the wire: drop, duplicate, corrupt, or truncate the Nth frame
  crossing a socket.  Consumed by the red-team capture proxy
  (:mod:`repro.redteam.proxy`) to tamper live traffic, and reusable
  by any harness that moves length-prefixed frames.

* :func:`corrupt_file_byte` — flip one byte of a file on disk: the
  ledger-rollback campaigns use it to tamper a killed shard's WAL
  before reviving it.

Used by ``tests/storage/``, ``tests/redteam/``, and mirrored at
process granularity by the SIGKILL chaos benchmark
``benchmarks/test_recovery.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, List, Optional


class SimulatedCrash(Exception):
    """The process 'died' here; everything after this write is gone."""


@dataclass
class FaultPlan:
    """A deterministic schedule of storage faults.

    Counters are plan-global (shared across every file the opener
    wraps), so "crash on the 7th write overall" stays meaningful when
    a snapshot and a log are being written through the same plan.
    """

    #: Crash when the Nth ``write()`` call starts (1-based).
    crash_after_writes: Optional[int] = None
    #: Crash when the Nth ``fsync()`` call starts (1-based).
    crash_on_fsync: Optional[int] = None
    #: Crash when code reaches this named crash point
    #: (e.g. ``"snapshot:written"``, ``"wal:reset"``).
    crash_at: Optional[str] = None
    #: On a write-crash, this prefix of the dying write still lands —
    #: the classic torn write.
    torn_bytes: int = 0
    #: On any crash, roll the file back to the last honoured fsync:
    #: models a power cut taking the OS write-back cache with it.
    lose_unsynced: bool = False
    #: Lying disk: ``fsync`` returns success but commits nothing, so
    #: with ``lose_unsynced`` even an ``always``-policy log loses data.
    drop_fsync: bool = False

    writes_seen: int = 0
    fsyncs_seen: int = 0
    crashed: bool = False
    points_seen: List[str] = field(default_factory=list)

    def reached(self, point: str) -> None:
        """Named crash point (called from the code under test)."""
        self.points_seen.append(point)
        if self.crash_at is not None and point == self.crash_at:
            self.crashed = True
            raise SimulatedCrash(f"crash point {point!r}")


class FaultyFile:
    """A file object that dies on schedule.

    Exposes ``fsync`` so :func:`repro.storage.wal._fsync` routes
    durability through the plan instead of straight to ``os.fsync``.
    """

    def __init__(self, inner: Any, plan: FaultPlan, path: str) -> None:
        self._inner = inner
        self._plan = plan
        self.path = path
        # Everything already on disk when we open is considered durable.
        self._synced = inner.tell()

    # -- plan triggers -------------------------------------------------
    def _crash(self, reason: str, torn: bytes = b"") -> None:
        plan = self._plan
        plan.crashed = True
        if plan.lose_unsynced:
            # The write-back cache dies with the power: only the prefix
            # up to the last honoured fsync survives.
            self._inner.flush()
            self._inner.truncate(self._synced)
        if torn:
            self._inner.seek(0, os.SEEK_END)
            self._inner.write(torn)
        self._inner.flush()
        self._inner.close()
        raise SimulatedCrash(reason)

    def write(self, data: bytes) -> int:
        plan = self._plan
        plan.writes_seen += 1
        if (plan.crash_after_writes is not None
                and plan.writes_seen >= plan.crash_after_writes):
            torn = bytes(data[:max(0, plan.torn_bytes)])
            self._crash(
                f"crash on write #{plan.writes_seen}"
                f" (torn {len(torn)}/{len(data)} bytes)",
                torn=torn,
            )
        return self._inner.write(data)

    def fsync(self) -> None:
        plan = self._plan
        plan.fsyncs_seen += 1
        if (plan.crash_on_fsync is not None
                and plan.fsyncs_seen >= plan.crash_on_fsync):
            self._crash(f"crash on fsync #{plan.fsyncs_seen}")
        self._inner.flush()
        os.fsync(self._inner.fileno())
        if not plan.drop_fsync:
            self._synced = self._inner.tell()

    # -- passthrough ---------------------------------------------------
    def flush(self) -> None:
        self._inner.flush()

    def fileno(self) -> int:
        return self._inner.fileno()

    def tell(self) -> int:
        return self._inner.tell()

    def truncate(self, size: int) -> int:
        return self._inner.truncate(size)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class FaultyOpener:
    """``opener(path, mode)`` factory wiring one plan into every file."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.files: List[FaultyFile] = []

    def __call__(self, path: str, mode: str) -> FaultyFile:
        wrapped = FaultyFile(open(path, mode), self.plan, path)
        self.files.append(wrapped)
        return wrapped


# ----------------------------------------------------------------------
# Network-level faults: deterministic frame manipulation
# ----------------------------------------------------------------------
@dataclass
class NetFaultPlan:
    """A deterministic schedule of frame-level wire faults.

    Operates on frame *payloads* (the bytes after the 4-byte length
    prefix): the applier re-frames every surviving payload with a
    correct header, so stream framing always holds and the tamper is
    seen by the **codec** (checksum mismatch, garbage envelope), not
    by the framing layer — exactly the adversary the typed-rejection
    contract is about.  Frame counters are 1-based and plan-global,
    mirroring :class:`FaultPlan`'s write counters.

    One-shot actions (``*_nth``) fire on exactly that frame; the
    periodic ``corrupt_every`` corrupts every Nth frame after
    ``start_after`` (so handshakes/init traffic can pass clean).
    """

    #: Drop the Nth frame entirely (the peer sees silence, then its
    #: own timeout/retry machinery).
    drop_nth: Optional[int] = None
    #: Deliver the Nth frame twice back to back (wire-level replay).
    duplicate_nth: Optional[int] = None
    #: Bit-flip one payload byte of the Nth frame.
    corrupt_nth: Optional[int] = None
    #: Truncate the Nth frame's payload to ``truncate_to`` bytes.
    truncate_nth: Optional[int] = None
    #: Corrupt every Nth frame (after ``start_after``); composes with
    #: ``corrupt_nth`` for one-shot use.
    corrupt_every: Optional[int] = None
    #: Frames numbered <= this pass untouched (lets init traffic
    #: through before the tampering starts).
    start_after: int = 0
    #: Which payload byte the corruption flips (modulo the length).
    corrupt_offset: int = 0
    #: XOR mask for the flipped byte (0 would be a no-op; coerced to
    #: 0xFF).
    corrupt_mask: int = 0xFF
    #: Payload bytes kept by a truncation.
    truncate_to: int = 1

    frames_seen: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_corrupted: int = 0
    frames_truncated: int = 0

    def tampered(self) -> int:
        """Frames this plan mutilated (corrupted or truncated) — the
        number of typed rejections an audit should account for."""
        return self.frames_corrupted + self.frames_truncated

    def _flip(self, payload: bytes) -> bytes:
        data = bytearray(payload)
        if data:
            index = self.corrupt_offset % len(data)
            data[index] ^= (self.corrupt_mask & 0xFF) or 0xFF
        return bytes(data)

    def apply(self, payload: bytes) -> List[bytes]:
        """Map one frame payload to the payloads actually delivered.

        Returns ``[]`` for a drop, one payload normally, two for a
        duplicate; corrupted/truncated payloads come back mutated and
        are counted on the plan.
        """
        self.frames_seen += 1
        n = self.frames_seen
        if n <= self.start_after:
            return [payload]
        if self.drop_nth is not None and n == self.drop_nth:
            self.frames_dropped += 1
            return []
        out = payload
        if self.truncate_nth is not None and n == self.truncate_nth:
            self.frames_truncated += 1
            out = out[:max(0, self.truncate_to)]
        periodic = (self.corrupt_every is not None
                    and (n - self.start_after) % self.corrupt_every == 0)
        if (self.corrupt_nth is not None and n == self.corrupt_nth) \
                or periodic:
            self.frames_corrupted += 1
            out = self._flip(out)
        if self.duplicate_nth is not None and n == self.duplicate_nth:
            self.frames_duplicated += 1
            return [out, out]
        return [out]


def corrupt_file_byte(path: str, offset: Optional[int] = None,
                      mask: int = 0xFF) -> int:
    """Flip one byte of ``path`` in place; returns the offset flipped.

    ``offset=None`` targets the middle of the file — for a WAL that
    lands inside a committed record's sealed body, the classic
    "attacker edits the ledger journal" tamper.  Negative offsets
    count from the end.  Raises :class:`ValueError` on an empty file
    (nothing to tamper).
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    if offset is None:
        offset = size // 2
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} out of range for {size}-byte file")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ ((mask & 0xFF) or 0xFF)]))
        handle.flush()
        os.fsync(handle.fileno())
    return offset
