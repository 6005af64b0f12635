"""The write-ahead ledger: framing, sealing, snapshots, recovery.

The durability contract under test:

* every intact prefix of the log replays to exactly the state that was
  committed when its last record was written (prefix consistency);
* a torn or tampered tail is *dropped*, never reinterpreted — and every
  possible single-byte corruption or truncation of the final record
  still yields the previous committed state (the property tests);
* recovery applies the paper's pessimistic rule (Section 5.7): units
  outstanding at the crash are forfeited to ``lost_units`` — never
  re-granted — while committed returns stay returned and escrowed root
  keys survive for gracefully stopped clients;
* under ``fsync="always"`` a grant is on disk before the renewal that
  made it is acknowledged, and a whole ``renew_batch`` rides one fsync.
"""

import os
import shutil
import struct
import sys
import threading
import time
import zlib

import pytest

from repro.core.protocol import InitRequest, RenewRequest, ShutdownNotice, \
    Status
from repro.core.sl_remote import SlRemote
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.storage import wal as wal_module
from repro.storage.wal import (
    WAL_MAGIC,
    RecoveryReport,
    ShardPersistence,
    WalRecord,
    WriteAheadLog,
    _seal,
    _unseal,
    attach_persistence,
    derive_wal_key64,
    read_snapshot,
    write_snapshot,
)
from repro.testing.faults import FaultPlan, FaultyOpener, SimulatedCrash

KEY = derive_wal_key64(b"test-secret", "shard-under-test")
POOL = 10_000


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def fresh_remote(**kwargs):
    return SlRemote(RemoteAttestationService(accept_any_platform=True),
                    **kwargs)


def init_client(remote, name="client", nonce=1):
    machine = SgxMachine(name)
    report = machine.local_authority.generate_report(1, 1, nonce=nonce)
    response = remote.handle_init(
        InitRequest(slid=None, report=report,
                    platform_secret=machine.platform_secret),
        machine.clock, machine.stats,
    )
    assert response.status is Status.OK
    return machine, response.slid


def renew(remote, slid, license_id, blob):
    return remote.handle_renew(RenewRequest(
        slid=slid, license_id=license_id, license_blob=blob,
        network_reliability=1.0, health=1.0,
    ))


def make_persistence(directory, **kwargs):
    kwargs.setdefault("name", "shard-under-test")
    kwargs.setdefault("server_secret", b"test-secret")
    kwargs.setdefault("fsync", "always")
    return ShardPersistence(str(directory), **kwargs)


def conserved(remote, license_id, total):
    ledger = remote.ledger(license_id)
    outstanding = sum(ledger.outstanding.values())
    return outstanding + ledger.lost_units + ledger.available == total


def raw_frames(path):
    """``(offset, payload)`` of every frame in a log file, by the
    length prefixes alone (no CRC, no cipher)."""
    with open(path, "rb") as handle:
        data = handle.read()
    frames, offset = [], len(WAL_MAGIC)
    while offset < len(data):
        length, _crc = struct.unpack(">II", data[offset:offset + 8])
        frames.append((offset, data[offset + 8:offset + 8 + length]))
        offset += 8 + length
    return frames


# ----------------------------------------------------------------------
# Framing and sealing
# ----------------------------------------------------------------------
class TestWalFraming:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        for n in range(5):
            assert wal.append("grant", {"units": n}) == n + 1
        wal.close()
        records, good, size = WriteAheadLog.read(path, KEY)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert [r.fields["units"] for r in records] == list(range(5))
        assert good == size

    def test_records_are_sealed_not_plaintext(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        wal.append("grant", {"license_id": "super-secret-license-name"})
        wal.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        assert b"super-secret-license-name" not in raw
        assert b"grant" not in raw

    def test_wrong_key_reads_nothing(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        wal.append("grant", {"units": 1})
        wal.close()
        records, good, _size = WriteAheadLog.read(path, KEY ^ 1)
        assert records == []
        assert good == len(WAL_MAGIC)

    def test_bad_magic_reads_as_empty(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        with open(path, "wb") as handle:
            handle.write(b"NOT-A-WAL-FILE" * 3)
        records, good, _size = WriteAheadLog.read(path, KEY)
        assert records == []
        assert good == 0

    def test_missing_file_reads_as_empty(self, tmp_path):
        records, good, size = WriteAheadLog.read(
            str(tmp_path / "absent.wal"), KEY
        )
        assert (records, good, size) == ([], 0, 0)

    def test_reset_truncates_but_preserves_seq(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        for _ in range(3):
            wal.append("grant", {})
        wal.reset()
        assert wal.last_seq == 3
        assert wal.appends_since_reset == 0
        assert wal.append("grant", {}) == 4
        wal.close()
        records, _good, _size = WriteAheadLog.read(path, KEY)
        assert [r.seq for r in records] == [4]

    def test_reopen_continues_after_close(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        wal.append("grant", {"units": 1})
        wal.close()
        wal2 = WriteAheadLog(path, KEY, fsync="off")
        # A fresh handle does not know the old seq; recovery sets it.
        wal2.last_seq = 1
        wal2.append("grant", {"units": 2})
        wal2.close()
        records, good, size = WriteAheadLog.read(path, KEY)
        assert [r.seq for r in records] == [1, 2]
        assert good == size

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "x.wal"), KEY, fsync="sometimes")


class TestOnDiskCompatibility:
    """The seal is a format: bytes pinned from the tree before the
    word-wide AES (PR 12) must come out of, and read back under, the
    current cipher unchanged."""

    #: ``ledger.wal`` + ``ledger.snap`` written by PR 12's tree: two
    #: licenses, a snapshot at seq 4 holding slid 1's 5,000-unit grant,
    #: then a three-record tail.
    PARENT_SHARD = os.path.join(os.path.dirname(__file__), "data",
                                "parent_shard")

    def test_seal_bytes_are_pinned(self, monkeypatch):
        monkeypatch.setattr(os, "urandom",
                            lambda n: bytes(range(0xA0, 0xA0 + n)))
        sealed = _seal(b'{"event":"grant","fields":{"units":7},"seq":1}', KEY)
        assert sealed.hex() == (
            "a0a1a2a3a4a5a6a7236c518d32cdef14f96061e45f9c96c3f15fd306c7b3114d"
            "5a79afbbe597af9262cb17e9515a230f9ade8c3bc9ec89f39ff55583f779fc58"
            "0a95af71d9a165e69ad47a7cb11edd537413aa9f7814"
        )

    def test_parent_commit_log_reads_record_for_record(self):
        records, good, size = WriteAheadLog.read(
            os.path.join(self.PARENT_SHARD, "ledger.wal"), KEY)
        assert good == size == 370
        assert [(r.seq, r.event, r.fields) for r in records] == [
            (5, "admit", {"slid": 2}),
            (6, "grant", {"license_id": "lic", "node_key": "slid:2",
                          "units": 1250}),
            (7, "return", {"license_id": "lic", "node_key": "slid:1",
                           "units": 5}),
        ]
        snapshot = read_snapshot(
            os.path.join(self.PARENT_SHARD, "ledger.snap"), KEY)
        assert snapshot["seq"] == 4
        assert sorted(snapshot["licenses"]) == ["lic", "lic-b"]

    def test_parent_commit_shard_recovers(self, tmp_path):
        directory = tmp_path / "shard"
        shutil.copytree(self.PARENT_SHARD, directory)
        remote = fresh_remote()
        report = make_persistence(directory).recover(remote)
        assert (report.snapshot_seq, report.records_replayed,
                report.tail_dropped_bytes) == (4, 3, 0)
        # 5,000 + 1,250 granted, 5 returned, the rest forfeited.
        assert report.forfeited_units == 6245
        assert remote.ledger("lic").lost_units == 6245
        assert remote.ledger("lic").available == POOL - 6245
        assert remote.ledger("lic-b").available == 500
        assert conserved(remote, "lic", POOL)


class TestKeystreamPool:
    """Appends seal from pre-drawn keystream; the bytes they write are
    the scalar seal's, and a nonce never covers two records."""

    def test_pooled_frames_unseal_under_the_scalar_cipher(self, tmp_path):
        """Across a refill, a compaction reset and a record too long
        for a slot: every frame opens under ``_unseal`` (the scalar
        path) and no nonce appears twice in the log's lifetime."""
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        first = wal_module._POOL_SLOTS + 5  # the 129th append refills
        for n in range(first):
            wal.append("grant", {"units": n})
        before_reset = raw_frames(path)
        wal.reset()
        long_field = "x" * (wal_module._POOL_BLOCKS * 16)
        wal.append("grant", {"units": first})
        wal.append("install_license", {"record": long_field})
        wal.append("grant", {"units": first + 2})
        wal.close()
        after_reset = raw_frames(path)
        frames = before_reset + after_reset
        assert len(frames) == first + 3
        records = [WalRecord.decode(_unseal(payload, KEY))
                   for _offset, payload in frames]
        assert [record.seq for record in records] \
            == list(range(1, first + 4))
        assert records[-2].fields == {"record": long_field}
        assert len(after_reset[1][1]) > 8 + wal_module._POOL_BLOCKS * 16
        nonces = [payload[:8] for _offset, payload in frames]
        assert len(set(nonces)) == len(nonces)
        # ...and the bulk reader agrees with the scalar one.
        got, good, size = WriteAheadLog.read(path, KEY)
        assert got == records[first:]
        assert good == size

    def test_pool_is_dropped_on_close(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "ledger.wal"), KEY, fsync="off")
        wal.append("grant", {})
        assert len(wal._pool) == wal_module._POOL_SLOTS - 1
        wal.close()
        assert wal._pool == []

    def test_a_failed_write_still_burns_its_slot(self, tmp_path):
        """The slot is popped before the write: when the write dies
        (its header + nonce land torn), the retry seals under another
        nonce and the burnt one is gone from the pool."""
        path = str(tmp_path / "ledger.wal")
        # Write 1 is the magic, 2 the first append, 3 dies.
        plan = FaultPlan(crash_after_writes=3, torn_bytes=16)
        wal = WriteAheadLog(path, KEY, fsync="off",
                            opener=FaultyOpener(plan))
        wal.append("grant", {"units": 1})
        slots = len(wal._pool)
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"units": 2})
        assert wal.last_seq == 1
        assert len(wal._pool) == slots - 1
        with open(path, "rb") as handle:
            burnt = handle.read()[-8:]
        assert burnt not in [nonce for nonce, _stream in wal._pool]
        plan.crash_after_writes = None  # the disk comes back
        wal.reset()
        wal.append("grant", {"units": 2})
        wal.close()
        (_offset, payload), = raw_frames(path)
        assert payload[:8] != burnt
        assert WalRecord.decode(_unseal(payload, KEY)).fields == {"units": 2}

    def test_concurrent_appenders_never_share_a_nonce(self, tmp_path):
        """Eight threads, a 10 us switch interval, two seconds at most:
        a pool slot handed to two appends would show as a repeated
        nonce, a lost ``last_seq`` update as a gap or a duplicate."""
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        per_thread, threads_n = 150, 8
        deadline = time.monotonic() + 2.0

        def appender(worker):
            for n in range(per_thread):
                if time.monotonic() > deadline:
                    return
                wal.append("grant", {"worker": worker, "n": n})

        threads = [threading.Thread(target=appender, args=(worker,))
                   for worker in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        wal.close()
        frames = raw_frames(path)
        assert len(frames) == wal.append_count > wal_module._POOL_SLOTS
        nonces = [payload[:8] for _offset, payload in frames]
        assert len(set(nonces)) == len(nonces)
        records, good, size = WriteAheadLog.read(path, KEY)
        assert good == size
        assert [record.seq for record in records] \
            == list(range(1, len(frames) + 1))
        for worker in range(threads_n):
            mine = [record.fields["n"] for record in records
                    if record.fields["worker"] == worker]
            assert mine == list(range(len(mine)))


class TestBulkRead:
    N = 5

    @pytest.mark.parametrize("k", range(N))
    def test_tampered_frame_k_keeps_exactly_the_first_k(self, tmp_path, k):
        """Flip one ciphertext byte of frame ``k`` and repair its CRC,
        so only the seal can tell: the reader returns records 0..k-1
        and points ``good_offset`` at frame ``k``, though the frames
        behind it are intact."""
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="off")
        for n in range(self.N):
            wal.append("grant", {"units": n})
        wal.close()
        offset, payload = raw_frames(path)[k]
        tampered = bytearray(payload)
        tampered[8 + (k * 7) % (len(payload) - 8)] ^= 0x01
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(struct.pack(">II", len(tampered),
                                     zlib.crc32(tampered)) + tampered)
        records, good, size = WriteAheadLog.read(path, KEY)
        assert [record.fields["units"] for record in records] \
            == list(range(k))
        assert good == offset
        assert size == os.path.getsize(path)


class TestFsyncPolicies:
    def test_always_pays_per_append(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "a.wal"), KEY, fsync="always")
        for n in range(4):
            wal.append("grant", {})
            assert wal.fsync_count == n + 1
        wal.close()

    def test_off_never_pays(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "o.wal"), KEY, fsync="off")
        for _ in range(4):
            wal.append("grant", {})
        assert wal.fsync_count == 0
        wal.close()

    def test_interval_group_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "i.wal"), KEY, fsync="interval",
                            fsync_interval_seconds=3600.0)
        for _ in range(4):
            wal.append("grant", {})
        assert wal.fsync_count == 0  # window never elapsed
        wal.fsync_interval_seconds = 0.0
        wal.sync_if_due()
        assert wal.fsync_count == 1
        # Clean: nothing due until the next append dirties the log.
        wal.sync_if_due()
        assert wal.fsync_count == 1
        wal.close()

    def test_close_flushes_dirty_interval_log(self, tmp_path):
        path = str(tmp_path / "c.wal")
        wal = WriteAheadLog(path, KEY, fsync="interval",
                            fsync_interval_seconds=3600.0)
        wal.append("grant", {"units": 7})
        wal.close()
        records, _good, _size = WriteAheadLog.read(path, KEY)
        assert len(records) == 1
        assert wal.fsync_count == 1


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.snap")
        payload = {"seq": 12, "licenses": {"lic": {"x": 1}}}
        write_snapshot(path, KEY, payload)
        assert read_snapshot(path, KEY) == payload
        assert not os.path.exists(path + ".tmp")

    def test_missing_reads_none(self, tmp_path):
        assert read_snapshot(str(tmp_path / "absent.snap"), KEY) is None

    def test_damage_reads_none(self, tmp_path):
        path = str(tmp_path / "ledger.snap")
        write_snapshot(path, KEY, {"seq": 1})
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-3, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert read_snapshot(path, KEY) is None

    def test_wrong_key_reads_none(self, tmp_path):
        path = str(tmp_path / "ledger.snap")
        write_snapshot(path, KEY, {"seq": 1})
        assert read_snapshot(path, KEY ^ 1) is None


# ----------------------------------------------------------------------
# Recovery semantics (Section 5.7)
# ----------------------------------------------------------------------
class TestRecovery:
    def populate(self, tmp_path, returns=0):
        """A remote with one grant (optionally partly returned), crashed."""
        remote = fresh_remote()
        persistence = make_persistence(tmp_path)
        persistence.recover(remote)
        persistence.attach(remote)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        response = renew(remote, slid, "lic", blob)
        assert response.status is Status.OK
        if returns:
            assert remote.return_units(slid, "lic", returns) is Status.OK
        persistence.close()  # the *log* survives; RAM state "dies" here
        return response.granted_units, slid

    def test_outstanding_units_forfeited_not_resurrected(self, tmp_path):
        granted, _slid = self.populate(tmp_path)
        remote = fresh_remote()
        report = make_persistence(tmp_path).recover(remote)
        ledger = remote.ledger("lic")
        assert ledger.outstanding == {}
        assert ledger.lost_units == granted
        assert ledger.available == POOL - granted
        assert report.forfeited_units == granted
        assert conserved(remote, "lic", POOL)

    def test_committed_returns_stay_returned(self, tmp_path):
        granted, _slid = self.populate(tmp_path, returns=5)
        remote = fresh_remote()
        make_persistence(tmp_path).recover(remote)
        ledger = remote.ledger("lic")
        # The 5 returned units went back to the pool before the crash
        # and stay there; only the still-outstanding remainder is lost.
        assert ledger.lost_units == granted - 5
        assert ledger.available == POOL - (granted - 5)
        assert conserved(remote, "lic", POOL)

    def test_escrow_survives_the_crash(self, tmp_path):
        remote = fresh_remote()
        persistence = make_persistence(tmp_path)
        persistence.recover(remote)
        persistence.attach(remote)
        remote.issue_license("lic", POOL)
        _machine, slid = init_client(remote)
        assert remote.handle_shutdown(
            ShutdownNotice(slid=slid, root_key=0xC0FFEE)
        ) is Status.OK
        persistence.close()

        remote2 = fresh_remote()
        make_persistence(tmp_path).recover(remote2)
        client = remote2._clients[slid]
        assert client.graceful_shutdown is True
        assert client.escrowed_root_key == 0xC0FFEE

    def test_slid_watermark_advances_past_recovered_clients(self, tmp_path):
        _granted, slid = self.populate(tmp_path)
        remote = fresh_remote()
        make_persistence(tmp_path).recover(remote)
        _machine, new_slid = init_client(remote, name="newcomer", nonce=2)
        assert new_slid > slid

    def test_recovery_is_idempotent(self, tmp_path):
        granted, _slid = self.populate(tmp_path)
        first = fresh_remote()
        make_persistence(tmp_path).recover(first)
        # The first recovery compacted the forfeiture into the snapshot;
        # recovering again must not forfeit (or lose) anything further.
        second = fresh_remote()
        report = make_persistence(tmp_path).recover(second)
        assert report.forfeited_units == 0
        assert second.ledger("lic").lost_units == granted
        assert second.ledger("lic").available == POOL - granted
        assert conserved(second, "lic", POOL)

    def test_recovery_after_compaction_is_snapshot_only(self, tmp_path):
        self.populate(tmp_path)
        remote = fresh_remote()
        make_persistence(tmp_path).recover(remote)
        # recover() ends in compact(): the next recovery replays nothing.
        report = make_persistence(tmp_path).recover(fresh_remote())
        assert report.records_replayed == 0
        assert report.snapshot_seq > 0

    def test_revoke_survives(self, tmp_path):
        remote = fresh_remote()
        persistence = make_persistence(tmp_path)
        persistence.recover(remote)
        persistence.attach(remote)
        remote.issue_license("lic", POOL)
        remote.revoke_license("lic")
        persistence.close()
        remote2 = fresh_remote()
        make_persistence(tmp_path).recover(remote2)
        assert remote2.license_definition("lic").revoked is True

    def test_unknown_events_are_skipped_not_fatal(self, tmp_path):
        persistence = make_persistence(tmp_path)
        persistence.wal.append("从未见过", {"mystery": True})
        persistence.wal.append("issue", {"license_id": "lic",
                                         "total_units": POOL,
                                         "kind": "count",
                                         "tick_seconds": 0.0})
        persistence.wal.close()
        remote = fresh_remote()
        report = make_persistence(tmp_path).recover(remote)
        assert report.records_skipped == 1
        assert report.records_replayed == 1
        assert remote.ledger("lic").total_gcl == POOL

    def test_marker_line_parses(self):
        report = RecoveryReport(name="shard-0", records_replayed=3,
                                forfeited_units=40, tail_dropped_bytes=17,
                                bytes_replayed=512, duration_seconds=0.25)
        line = report.marker_line()
        assert line.startswith("SL-Recovery shard-0: ")
        parsed = dict(part.split("=") for part in line.split(": ")[1].split())
        assert parsed == {"records": "3", "forfeited": "40", "dropped": "17",
                          "bytes": "512", "seconds": "0.2500"}


class TestGroupCommit:
    def test_batch_defers_fsync_to_one_sync(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="always")
        before = wal.fsync_count
        with wal.batch():
            for n in range(8):
                wal.append("grant", {"units": n})
        assert wal.fsync_count == before + 1
        wal.close()
        records, _good, _size = WriteAheadLog.read(path, KEY)
        assert [record.fields["units"] for record in records] \
            == list(range(8))

    def test_nested_batches_sync_once_at_the_outermost(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "ledger.wal"), KEY,
                            fsync="always")
        with wal.batch():
            wal.append("grant", {"units": 1})
            with wal.batch():
                wal.append("grant", {"units": 2})
            assert wal.fsync_count == 0
        assert wal.fsync_count == 1
        wal.close()

    def test_renew_batch_pays_one_fsync_for_n_grants(self, tmp_path):
        """The end-to-end claim: N coalesced renewals, one disk sync.

        ``attach`` installs ``commit_group``; a ``renew_batch`` of N
        members must leave exactly one more fsync on the log than
        before, while N single renewals under ``always`` pay N.
        """
        from repro.core.protocol import BatchRequest

        remote = fresh_remote()
        persistence = make_persistence(tmp_path)
        persistence.recover(remote)
        persistence.attach(remote)
        assert remote.commit_group is not None
        blob = remote.issue_license("lic", POOL).license_blob()
        machines = [init_client(remote, name=f"n{i}", nonce=i + 1)
                    for i in range(4)]
        before = persistence.wal.fsync_count
        batch = BatchRequest(requests=tuple(
            RenewRequest(slid=slid, license_id="lic", license_blob=blob,
                         network_reliability=1.0, health=1.0)
            for _machine, slid in machines
        ))
        reply = remote.handle_renew_batch(batch)
        assert [slot.status for slot in reply.responses] \
            == [Status.OK] * len(machines)
        assert persistence.wal.fsync_count == before + 1
        assert not persistence.wal._dirty  # that one sync covered them all
        records, _good, _size = WriteAheadLog.read(persistence.wal.path,
                                                   persistence._key64)
        assert [record.event for record in records[-len(machines):]] \
            == ["grant"] * len(machines)
        assert conserved(remote, "lic", POOL)
        persistence.close()

    def test_grant_is_on_disk_before_the_renewal_is_acknowledged(
            self, tmp_path):
        """Durability order (Section 5.7): fsync first, reply second.

        A witness observer registered *after* the journal runs inside
        the same ``_emit("grant")``, under the license lock, before
        ``handle_renew`` has a response to return — by then the record
        must already be readable from the file and synced.
        """
        remote = fresh_remote()
        persistence = make_persistence(tmp_path)
        persistence.recover(remote)
        persistence.attach(remote)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        wal = persistence.wal
        before = wal.fsync_count
        witnessed = []

        def witness(event, fields):
            if event == "grant":
                records, _good, _size = WriteAheadLog.read(
                    wal.path, persistence._key64)
                witnessed.append((records[-1].event,
                                  records[-1].fields["units"],
                                  wal.fsync_count - before, wal._dirty))

        remote.add_observer(witness)
        response = renew(remote, slid, "lic", blob)
        assert response.status is Status.OK
        assert witnessed == [("grant", response.granted_units, 1, False)]
        persistence.close()


# ----------------------------------------------------------------------
# Property tests: corrupt / truncate the last record at every offset
# ----------------------------------------------------------------------
def _committed_wal(tmp_path):
    """A shard that crashed right after its last committed record.

    Returns ``(wal_path, prev_offset, size, granted_total)`` where the
    final record occupies ``[prev_offset, size)``.
    """
    remote = fresh_remote()
    persistence = make_persistence(tmp_path, compact_every=0)
    persistence.recover(remote)
    persistence.attach(remote)
    blob = remote.issue_license("lic", POOL).license_blob()
    for n in range(3):
        _machine, slid = init_client(remote, name=f"client-{n}", nonce=n + 1)
        assert renew(remote, slid, "lic", blob).status is Status.OK
    path = persistence.wal.path
    persistence.close()
    records, size, file_size = WriteAheadLog.read(path, KEY)
    assert size == file_size  # clean shutdown: no torn tail yet
    prev_offset, _payload = raw_frames(path)[-1]
    return path, prev_offset, file_size, records


class TestTornTailProperties:
    def test_every_single_byte_corruption_drops_only_the_tail(self, tmp_path):
        path, prev_offset, size, records = _committed_wal(tmp_path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        expected_seqs = [r.seq for r in records[:-1]]
        for offset in range(prev_offset, size):
            damaged = bytearray(pristine)
            damaged[offset] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            got, good, _sz = WriteAheadLog.read(path, KEY)
            assert [r.seq for r in got] == expected_seqs, (
                f"corruption at byte {offset} broke the committed prefix"
            )
            assert good == prev_offset

    def test_every_truncation_point_drops_only_the_tail(self, tmp_path):
        path, prev_offset, size, records = _committed_wal(tmp_path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        expected_seqs = [r.seq for r in records[:-1]]
        for cut in range(prev_offset, size):
            with open(path, "wb") as handle:
                handle.write(pristine[:cut])
            got, good, _sz = WriteAheadLog.read(path, KEY)
            assert [r.seq for r in got] == expected_seqs
            assert good == prev_offset

    def test_recovery_from_corrupted_tails_conserves_units(self, tmp_path):
        """Full-stack version, sampled: corrupt, recover, audit the pool.

        The prefix that survives is some committed moment of the shard's
        history, so recovery must yield a conserved ledger with every
        outstanding unit forfeited — for *any* tail damage.
        """
        path, prev_offset, size, _records = _committed_wal(tmp_path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        snap = str(tmp_path / ShardPersistence.SNAP_FILE)
        for offset in range(prev_offset, size, 7):
            damaged = bytearray(pristine)
            damaged[offset] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            if os.path.exists(snap):
                os.remove(snap)  # force a pure log replay each round
            remote = fresh_remote()
            report = make_persistence(tmp_path).recover(remote)
            assert report.tail_dropped_bytes == size - prev_offset
            ledger = remote.ledger("lic")
            assert ledger.outstanding == {}
            assert conserved(remote, "lic", POOL)


# ----------------------------------------------------------------------
# attach_persistence (the one-call wiring used by endpoints/deployments)
# ----------------------------------------------------------------------
class TestAttachPersistence:
    def test_single_remote_gets_one_subdirectory(self, tmp_path):
        remote = fresh_remote()
        persistences = attach_persistence(remote, str(tmp_path))
        assert [p.name for p in persistences] == ["remote"]
        remote.issue_license("lic", POOL)
        for p in persistences:
            p.close()
        again = fresh_remote()
        persistences = attach_persistence(again, str(tmp_path))
        reports = [p.last_report for p in persistences]
        assert again.ledger("lic").total_gcl == POOL
        assert reports[0] is not None
        for p in persistences:
            p.close()
