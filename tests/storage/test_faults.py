"""Fault injection: the WAL under deterministic crashes and lying disks.

Every claim the recovery path makes is exercised by *producing* the
disk state it defends against — torn writes, lost write-back caches,
fsyncs that lie, and deaths at the named crash points inside snapshot
compaction — then recovering and auditing the result.
"""

import os

import pytest

from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.storage.wal import (
    ShardPersistence,
    WriteAheadLog,
    derive_wal_key64,
    read_snapshot,
)
from repro.testing.faults import (
    FaultPlan,
    FaultyOpener,
    SimulatedCrash,
)

KEY = derive_wal_key64(b"test-secret", "shard-under-test")
POOL = 10_000


def fresh_remote():
    return SlRemote(RemoteAttestationService(accept_any_platform=True))


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


# ----------------------------------------------------------------------
# FaultyFile mechanics (the harness itself must be trustworthy)
# ----------------------------------------------------------------------
class TestFaultyFile:
    def wal_with(self, tmp_path, plan, fsync="off"):
        opener = FaultyOpener(plan)
        wal = WriteAheadLog(str(tmp_path / "f.wal"), KEY, fsync=fsync,
                            opener=opener)
        return wal, opener

    def test_crash_on_nth_write_keeps_the_prefix(self, tmp_path):
        # Write 1 is the magic; each append is one write.
        plan = FaultPlan(crash_after_writes=4)
        wal, _opener = self.wal_with(tmp_path, plan)
        wal.append("grant", {"n": 1})
        wal.append("grant", {"n": 2})
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 3})
        assert plan.crashed
        records, good, size = WriteAheadLog.read(wal.path, KEY)
        assert [r.fields["n"] for r in records] == [1, 2]
        assert good == size  # nothing of the dying write landed

    def test_torn_write_lands_a_partial_frame(self, tmp_path):
        plan = FaultPlan(crash_after_writes=3, torn_bytes=11)
        wal, _opener = self.wal_with(tmp_path, plan)
        wal.append("grant", {"n": 1})
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 2})
        records, good, size = WriteAheadLog.read(wal.path, KEY)
        assert [r.fields["n"] for r in records] == [1]
        assert size - good == 11  # exactly the torn prefix is garbage

    def test_power_cut_rolls_back_to_last_fsync(self, tmp_path):
        plan = FaultPlan(crash_after_writes=4, lose_unsynced=True)
        wal, _opener = self.wal_with(tmp_path, plan)
        wal.append("grant", {"n": 1})
        wal.sync()  # record 1 is now truly durable
        wal.append("grant", {"n": 2})  # ...but record 2 never fsyncs
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 3})
        records, _good, _size = WriteAheadLog.read(wal.path, KEY)
        assert [r.fields["n"] for r in records] == [1]

    def test_always_policy_survives_a_power_cut(self, tmp_path):
        plan = FaultPlan(crash_after_writes=4, lose_unsynced=True)
        wal, _opener = self.wal_with(tmp_path, plan, fsync="always")
        wal.append("grant", {"n": 1})
        wal.append("grant", {"n": 2})
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 3})
        records, _good, _size = WriteAheadLog.read(wal.path, KEY)
        assert [r.fields["n"] for r in records] == [1, 2]

    def test_a_lying_fsync_loses_even_always_policy_data(self, tmp_path):
        plan = FaultPlan(crash_after_writes=4, lose_unsynced=True,
                         drop_fsync=True)
        wal, _opener = self.wal_with(tmp_path, plan, fsync="always")
        wal.append("grant", {"n": 1})
        wal.append("grant", {"n": 2})
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 3})
        records, _good, _size = WriteAheadLog.read(wal.path, KEY)
        # fsync reported success but committed nothing: both records
        # evaporate.  (This documents the disk contract the WAL needs.)
        assert records == []

    def test_crash_on_nth_fsync(self, tmp_path):
        plan = FaultPlan(crash_on_fsync=3)
        wal, _opener = self.wal_with(tmp_path, plan, fsync="always")
        # fsync 1 is the magic; append syncs are 2, 3, ...
        wal.append("grant", {"n": 1})
        with pytest.raises(SimulatedCrash):
            wal.append("grant", {"n": 2})
        assert plan.fsyncs_seen == 3

    def test_named_crash_points_record_their_trail(self):
        plan = FaultPlan(crash_at="snapshot:renamed")
        plan.reached("snapshot:written")
        with pytest.raises(SimulatedCrash):
            plan.reached("snapshot:renamed")
        assert plan.points_seen == ["snapshot:written", "snapshot:renamed"]
        assert plan.crashed


# ----------------------------------------------------------------------
# Crashes through the full persistence stack
# ----------------------------------------------------------------------
def populate(tmp_path, **persistence_kwargs):
    """One license, one client, one grant — then the process 'dies'."""
    remote = fresh_remote()
    persistence = make_persistence(tmp_path, **persistence_kwargs)
    persistence.recover(remote)
    persistence.attach(remote)
    blob = remote.issue_license("lic", POOL).license_blob()
    _machine, slid = init_client(remote)
    response = renew(remote, slid, "lic", blob)
    assert response.status is Status.OK
    return remote, persistence, response.granted_units


class TestCrashPoints:
    def test_crash_before_snapshot_rename_keeps_the_old_state(self, tmp_path):
        remote, persistence, granted = populate(tmp_path)
        plan = FaultPlan(crash_at="snapshot:written")
        persistence._fault_plan = plan
        with pytest.raises(SimulatedCrash):
            persistence.compact()
        persistence._fault_plan = None
        persistence.close()
        # The tmp file exists but was never renamed; the WAL was never
        # truncated — recovery sees the old snapshot plus the full tail.
        survivor = fresh_remote()
        make_persistence(tmp_path).recover(survivor)
        assert survivor.ledger("lic").lost_units == granted
        assert conserved(survivor, "lic", POOL)

    def test_crash_after_rename_before_truncate_replays_stale_tail(
            self, tmp_path):
        remote, persistence, granted = populate(tmp_path)
        plan = FaultPlan(crash_at="snapshot:renamed")
        persistence._fault_plan = plan
        with pytest.raises(SimulatedCrash):
            persistence.compact()
        persistence._fault_plan = None
        persistence.close()
        # The new snapshot landed; the WAL still holds records the
        # snapshot already folded in.  Replay must skip them (seq <=
        # snapshot watermark), not apply them twice.
        snapshot = read_snapshot(
            str(tmp_path / ShardPersistence.SNAP_FILE), KEY
        )
        assert snapshot is not None and snapshot["seq"] > 0
        survivor = fresh_remote()
        report = make_persistence(tmp_path).recover(survivor)
        assert report.records_replayed == 0  # all at or below watermark
        assert survivor.ledger("lic").lost_units == granted
        assert conserved(survivor, "lic", POOL)

    def test_crash_at_append_never_resurrects_the_grant(self, tmp_path):
        remote = fresh_remote()
        plan = FaultPlan()
        persistence = make_persistence(tmp_path, fault_plan=plan)
        persistence.recover(remote)
        persistence.attach(remote)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        plan.crash_at = "wal:append"
        # The ledger mutates in RAM, then the journal append dies: the
        # client never gets an acknowledgement and the grant must not
        # exist after recovery.
        with pytest.raises(SimulatedCrash):
            renew(remote, slid, "lic", blob)
        persistence.close()
        survivor = fresh_remote()
        make_persistence(tmp_path).recover(survivor)
        ledger = survivor.ledger("lic")
        assert ledger.outstanding == {}
        assert ledger.lost_units == 0  # unacknowledged, so nothing lost
        assert ledger.available == POOL
        assert conserved(survivor, "lic", POOL)

    def test_torn_append_is_dropped_by_recovery(self, tmp_path):
        remote = fresh_remote()
        plan = FaultPlan()
        opener = FaultyOpener(plan)
        persistence = make_persistence(tmp_path, opener=opener)
        persistence.recover(remote)
        persistence.attach(remote)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        # Die on the very next write, landing a 9-byte torn prefix.
        plan.crash_after_writes = plan.writes_seen + 1
        plan.torn_bytes = 9
        with pytest.raises(SimulatedCrash):
            renew(remote, slid, "lic", blob)
        survivor = fresh_remote()
        report = make_persistence(tmp_path).recover(survivor)
        assert report.tail_dropped_bytes == 9
        ledger = survivor.ledger("lic")
        assert ledger.outstanding == {}
        assert ledger.available == POOL
        # The torn tail was repaired on disk, not just ignored: a
        # second recovery sees a clean file.
        report2 = make_persistence(tmp_path).recover(fresh_remote())
        assert report2.tail_dropped_bytes == 0
        persistence.close()  # the "dead" process's maintenance thread


# ----------------------------------------------------------------------
# NetFaultPlan: the wire-level sibling of FaultPlan
# ----------------------------------------------------------------------
class TestNetFaultPlan:
    def test_clean_plan_passes_frames_through(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan()
        assert plan.apply(b"abc") == [b"abc"]
        assert plan.frames_seen == 1
        assert plan.tampered() == 0

    def test_drop_duplicate_corrupt_truncate_fire_on_their_frames(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan(drop_nth=2, duplicate_nth=3, corrupt_nth=4,
                            truncate_nth=5, truncate_to=2)
        assert plan.apply(b"one") == [b"one"]
        assert plan.apply(b"two") == []                    # dropped
        assert plan.apply(b"three") == [b"three"] * 2      # replayed
        corrupted = plan.apply(b"four")
        assert corrupted != [b"four"] and len(corrupted[0]) == 4
        assert plan.apply(b"five!") == [b"fi"]             # truncated
        assert plan.frames_dropped == 1
        assert plan.frames_duplicated == 1
        assert plan.tampered() == 2

    def test_corruption_is_a_single_byte_xor(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan(corrupt_nth=1, corrupt_offset=2,
                            corrupt_mask=0x01)
        (out,) = plan.apply(bytes([0, 0, 0, 0]))
        assert out == bytes([0, 0, 1, 0])

    def test_zero_mask_is_coerced_to_a_real_flip(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan(corrupt_nth=1, corrupt_mask=0x00)
        (out,) = plan.apply(b"\x00")
        assert out == b"\xff"  # a 0 mask would be a silent no-op

    def test_start_after_shields_the_handshake(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan(corrupt_every=1, start_after=2)
        assert plan.apply(b"hello") == [b"hello"]
        assert plan.apply(b"init") == [b"init"]
        assert plan.apply(b"renew") != [b"renew"]
        assert plan.frames_corrupted == 1

    def test_periodic_corruption_hits_every_nth(self):
        from repro.testing.faults import NetFaultPlan

        plan = NetFaultPlan(corrupt_every=3)
        mutated = [plan.apply(b"xyzw")[0] != b"xyzw" for _ in range(9)]
        assert mutated == [False, False, True] * 3


class TestCorruptFileByte:
    def test_flips_middle_byte_by_default(self, tmp_path):
        from repro.testing.faults import corrupt_file_byte

        path = str(tmp_path / "blob")
        with open(path, "wb") as handle:
            handle.write(bytes(range(10)))
        offset = corrupt_file_byte(path)
        assert offset == 5
        with open(path, "rb") as handle:
            data = handle.read()
        assert data[5] == 5 ^ 0xFF
        assert [b for i, b in enumerate(data) if i != 5] \
            == [i for i in range(10) if i != 5]

    def test_negative_offset_counts_from_the_end(self, tmp_path):
        from repro.testing.faults import corrupt_file_byte

        path = str(tmp_path / "blob")
        with open(path, "wb") as handle:
            handle.write(b"abcd")
        assert corrupt_file_byte(path, offset=-1) == 3

    def test_empty_file_refused(self, tmp_path):
        from repro.testing.faults import corrupt_file_byte

        path = str(tmp_path / "empty")
        open(path, "wb").close()
        with pytest.raises(ValueError):
            corrupt_file_byte(path)

    def test_corrupted_wal_record_is_dropped_on_recovery(self, tmp_path):
        """The end-to-end claim: one flipped byte inside a committed
        record's sealed body and recovery refuses that record (and
        everything after it) rather than replaying a lie."""
        from repro.testing.faults import corrupt_file_byte

        path = str(tmp_path / "ledger.wal")
        wal = WriteAheadLog(path, KEY, fsync="always")
        for n in range(6):
            wal.append("grant", {"units": n})
        wal.close()
        intact, _good, _size = WriteAheadLog.read(path, KEY)
        assert len(intact) == 6
        corrupt_file_byte(path)
        surviving, good, size = WriteAheadLog.read(path, KEY)
        assert len(surviving) < 6
        assert good < size
