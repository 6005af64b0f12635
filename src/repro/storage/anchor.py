"""Freshness anchor: the watermark a stale-image rollback cannot move.

The WAL seals every record, so an attacker with disk access cannot
*forge* ledger history — but sealing alone cannot stop them from
*rewinding* it: copy the data directory while 80 units are granted,
let the clients burn the units, SIGKILL the shard, restore the old
copy, restart.  Every byte the recovered shard reads is authentic;
it is just authentically **old**, and the spent units come back.
That is exactly the stale-image replay of paper Section 6.2, one
layer down: the image being replayed is the shard's own ledger.

The paper's answer is a monotonic counter outside the attacker's
reach (Section 5.6's escrowed roots ride the same mechanism): every
durable commit ratchets the counter, and boot refuses any image whose
watermark is behind it.  :class:`FreshnessAnchor` is that counter's
file-backed stand-in — the same role
:class:`~repro.sgx.monotonic.MonotonicCounterService` plays for lease
blobs, applied to the shard image.  It is deliberately a *separate
path* from the data directory (``--anchor-dir`` vs ``--data-dir``):
the threat model grants the adversary the data directory and denies
them the anchor, mirroring SGX granting them the disk and denying
them the CPU's counters.

Wire-up (see :class:`~repro.storage.wal.ShardPersistence`):

* every compaction / maintenance tick / clean close ratchets the
  anchor to ``wal.durable_seq`` — the last record an fsync that has
  *returned* covers, never ``last_seq``, which is published before its
  fsync (monotonic — :meth:`advance` never moves backward, like
  ``psw_increment``);
* :meth:`~repro.storage.wal.ShardPersistence.recover` calls
  :meth:`check` with the sequence the disk image claims; a claim
  behind the anchor raises :class:`StaleImageError` and the server
  refuses to start (``SL-Anchor`` marker + exit 3) rather than serve
  resurrected units.

The file format is tiny and self-verifying — ``magic || seq:8 ||
crc32:4`` written via tmp + fsync + rename — and a missing or damaged
anchor reads as 0 (fail-open for first boot; the red-team campaigns
cover the fail-closed path by supplying one).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib

ANCHOR_MAGIC = b"SLANCH1\n"
_BODY = struct.Struct(">QI")  # seq, crc32(magic || seq)


class StaleImageError(Exception):
    """The disk image is behind the freshness anchor: a rollback.

    Raised at recovery time, before any state is served.  Carries the
    two watermarks so the refusal marker can say exactly how far back
    the image was rolled.
    """

    def __init__(self, name: str, image_seq: int, anchor_seq: int) -> None:
        super().__init__(
            f"shard {name!r} image claims seq={image_seq} but the "
            f"freshness anchor has seq={anchor_seq}: stale image "
            f"(rollback of {anchor_seq - image_seq} committed records) "
            f"refused"
        )
        self.name = name
        self.image_seq = image_seq
        self.anchor_seq = anchor_seq


class FreshnessAnchor:
    """File-backed monotonic watermark for one shard's ledger image."""

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self._lock = threading.Lock()
        self.advances = 0
        self._cached = self.read()

    @property
    def seq(self) -> int:
        """Last watermark ratcheted (cached; disk truth at init)."""
        return self._cached

    def read(self) -> int:
        """The anchored watermark; 0 when missing or damaged.

        Damage fails *open* on purpose: an anchor the operator lost is
        indistinguishable from a first boot, and refusing to ever
        start again would turn the defense into a denial of service
        against the operator.  The rollback defense only needs the
        *attacker-controlled* image to be unable to lower it.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return 0
        if data[:len(ANCHOR_MAGIC)] != ANCHOR_MAGIC:
            return 0
        body = data[len(ANCHOR_MAGIC):]
        if len(body) < _BODY.size:
            return 0
        seq, crc = _BODY.unpack(body[:_BODY.size])
        if zlib.crc32(ANCHOR_MAGIC + struct.pack(">Q", seq)) != crc:
            return 0
        return seq

    def advance(self, seq: int) -> int:
        """Ratchet the anchor to ``seq`` (monotonic; returns current).

        A lower or equal ``seq`` is a no-op — like the SGX counter,
        the anchor only ever counts up, which is the entire defense.
        Written atomically (tmp + fsync + rename) so a crash mid-
        advance leaves the previous anchor, never a torn one.
        """
        with self._lock:
            current = max(self._cached, self.read())
            if seq <= current:
                self._cached = current
                return current
            packed = struct.pack(">Q", seq)
            crc = zlib.crc32(ANCHOR_MAGIC + packed)
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(ANCHOR_MAGIC + _BODY.pack(seq, crc))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._cached = seq
            self.advances += 1
            return seq

    def check(self, image_seq: int, name: str = "remote") -> None:
        """Refuse an image whose watermark is behind the anchor."""
        anchored = self.read()
        if image_seq < anchored:
            raise StaleImageError(name, image_seq, anchored)
