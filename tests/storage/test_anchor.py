"""Freshness anchor: the monotonic watermark vs stale-image rollback.

Unit coverage for :mod:`repro.storage.anchor` plus the integration
claim that matters: a :class:`~repro.storage.wal.ShardPersistence`
wired with an anchor refuses to recover a rolled-back data directory
(:class:`StaleImageError`) while always accepting its own honest
image — including after a crash that lost the last anchor advance.
"""

import os
import shutil
import threading

import pytest

from repro.core.protocol import InitRequest, RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.storage.anchor import (
    ANCHOR_MAGIC,
    FreshnessAnchor,
    StaleImageError,
)
from repro.storage.wal import ShardPersistence

POOL = 10_000


class TestFreshnessAnchor:
    def test_missing_anchor_reads_zero(self, tmp_path):
        anchor = FreshnessAnchor(str(tmp_path / "s.anchor"))
        assert anchor.read() == 0
        assert anchor.seq == 0

    def test_advance_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "s.anchor")
        assert FreshnessAnchor(path).advance(42) == 42
        assert FreshnessAnchor(path).read() == 42

    def test_advance_is_monotonic(self, tmp_path):
        anchor = FreshnessAnchor(str(tmp_path / "s.anchor"))
        anchor.advance(100)
        assert anchor.advance(40) == 100  # ratchets never move back
        assert anchor.read() == 100
        assert anchor.advances == 1  # the no-op did not rewrite disk

    def test_damaged_anchor_fails_open(self, tmp_path):
        """A lost/corrupted anchor reads 0 (first-boot semantics): the
        defense must not become a denial of service on the operator."""
        path = str(tmp_path / "s.anchor")
        FreshnessAnchor(path).advance(9)
        with open(path, "r+b") as handle:
            handle.seek(len(ANCHOR_MAGIC))
            handle.write(b"\xff")  # breaks the CRC
        assert FreshnessAnchor(path).read() == 0
        with open(path, "wb") as handle:
            handle.write(b"not an anchor at all")
        assert FreshnessAnchor(path).read() == 0

    def test_check_refuses_only_older_images(self, tmp_path):
        anchor = FreshnessAnchor(str(tmp_path / "s.anchor"))
        anchor.advance(50)
        anchor.check(50, name="s")   # equal: the honest image
        anchor.check(51, name="s")   # ahead: anchor merely lags
        with pytest.raises(StaleImageError) as excinfo:
            anchor.check(49, name="s")
        assert excinfo.value.image_seq == 49
        assert excinfo.value.anchor_seq == 50
        assert "rollback of 1" in str(excinfo.value)

    def test_anchor_directory_created_on_demand(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "s.anchor")
        FreshnessAnchor(nested).advance(1)
        assert os.path.exists(nested)


# ----------------------------------------------------------------------
# Integration: ShardPersistence + anchor vs a rolled-back data dir
# ----------------------------------------------------------------------
def fresh_remote():
    return SlRemote(RemoteAttestationService(accept_any_platform=True))


def spend_some(remote, rounds=5):
    from repro.core.licensefile import VENDOR_SECRET, mint_license_blob

    try:
        remote.ledger("lic")
    except Exception:
        remote.issue_license("lic", POOL)
    blob = mint_license_blob("lic", VENDOR_SECRET)
    machine = SgxMachine("anchor-client")
    report = machine.local_authority.generate_report(1, 1, nonce=1)
    slid = remote.handle_init(
        InitRequest(slid=None, report=report,
                    platform_secret=machine.platform_secret),
        machine.clock, machine.stats,
    ).slid
    for _ in range(rounds):
        response = remote.handle_renew(RenewRequest(
            slid=slid, license_id="lic", license_blob=blob,
            network_reliability=1.0, health=1.0,
        ))
        assert response.status is Status.OK


def make_persistence(directory, anchor=None):
    return ShardPersistence(str(directory), name="shard-anchored",
                            server_secret=b"test-secret", fsync="always",
                            anchor=anchor)


class TestAnchoredRecovery:
    def test_rolled_back_image_refused(self, tmp_path):
        data, stale = tmp_path / "data", tmp_path / "stale"
        anchor = FreshnessAnchor(str(tmp_path / "anchors" / "s.anchor"))

        remote = fresh_remote()
        persistence = make_persistence(data, anchor=anchor)
        persistence.recover(remote)
        persistence.attach(remote)
        spend_some(remote, rounds=3)
        shutil.copytree(data, stale)        # the attacker's photograph
        spend_some(remote, rounds=4)        # history moves on
        persistence.close()                 # clean close ratchets
        assert anchor.seq > 0

        shutil.rmtree(data)                 # the rollback
        shutil.copytree(stale, data)
        with pytest.raises(StaleImageError):
            make_persistence(data, anchor=anchor).recover(fresh_remote())

    def test_own_image_always_recovers(self, tmp_path):
        data = tmp_path / "data"
        anchor = FreshnessAnchor(str(tmp_path / "anchors" / "s.anchor"))

        remote = fresh_remote()
        persistence = make_persistence(data, anchor=anchor)
        persistence.recover(remote)
        persistence.attach(remote)
        spend_some(remote)
        persistence.close()

        survivor = fresh_remote()
        make_persistence(data, anchor=anchor).recover(survivor)
        ledger = survivor.ledger("lic")
        outstanding = sum(ledger.outstanding.values())
        assert outstanding + ledger.lost_units + ledger.available == POOL

    def test_crash_without_final_ratchet_still_boots(self, tmp_path):
        """SIGKILL semantics: the anchor may lag the WAL (the advance
        happens only after a durable sync), and a lagging anchor must
        accept the newer honest image — refusing it would punish every
        crash, not just rollbacks."""
        data = tmp_path / "data"
        anchor_path = str(tmp_path / "anchors" / "s.anchor")

        remote = fresh_remote()
        # No anchor wired: simulates dying before any maintenance
        # ratchet, leaving the anchor at an older watermark.
        persistence = make_persistence(data)
        persistence.recover(remote)
        persistence.attach(remote)
        spend_some(remote, rounds=2)
        FreshnessAnchor(anchor_path).advance(1)  # stale, behind the WAL
        spend_some(remote, rounds=4)
        persistence.wal.close()  # close the handle; no anchor ratchet

        anchor = FreshnessAnchor(anchor_path)
        survivor = fresh_remote()
        make_persistence(data, anchor=anchor).recover(survivor)  # no raise
        ledger = survivor.ledger("lic")
        outstanding = sum(ledger.outstanding.values())
        assert outstanding + ledger.lost_units + ledger.available == POOL
        persistence.close()  # the "dead" process's maintenance thread


class _GatedFile:
    """A real file whose ``fsync`` parks while the gate is shut."""

    def __init__(self, inner, gate, parked):
        self._inner, self._gate, self._parked = inner, gate, parked

    def fsync(self):
        self._inner.flush()
        if not self._gate.is_set():
            self._parked.set()
        assert self._gate.wait(10.0)
        os.fsync(self._inner.fileno())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _RacingLog:
    """``persistence.wal`` as the maintenance thread sees it: the first
    read of the attribute that guards the ratchet gets its answer, and
    ``race`` runs before the tick can act on it."""

    def __init__(self, wal, race):
        self._wal, self._race = wal, race

    def __getattr__(self, name):
        value = getattr(self._wal, name)
        if name in ("_dirty", "durable_seq") and self._race is not None:
            race, self._race = self._race, None
            race()
        return value


class TestAnchorRatchet:
    def test_anchor_never_passes_the_fsynced_tail(self, tmp_path):
        """``append`` publishes ``last_seq`` before its fsync returns.
        An append that lands in the middle of a maintenance tick must
        not get its seq into the anchor while that fsync is still in
        flight: a crash there would leave an anchor the surviving log
        cannot satisfy, and recovery would refuse an honest image."""
        gate, parked = threading.Event(), threading.Event()
        gate.set()
        anchor = FreshnessAnchor(str(tmp_path / "anchors" / "s.anchor"))
        persistence = ShardPersistence(
            str(tmp_path / "data"), name="shard-anchored",
            server_secret=b"test-secret", fsync="always", compact_every=0,
            opener=lambda path, mode: _GatedFile(open(path, mode), gate,
                                                 parked),
            anchor=anchor,
        )
        wal = persistence.wal
        wal.append("grant", {"units": 1})  # seq 1, fsynced
        appender = threading.Thread(
            target=wal.append, args=("grant", {"units": 2}))
        raced, ratcheted = threading.Event(), threading.Event()
        seen = []  # (seq handed to the anchor, fsyncs returned by then)
        advance = anchor.advance

        def race():
            gate.clear()
            appender.start()
            parked.wait(5.0)  # seq 2 written and published, not synced
            raced.set()

        def watched_advance(seq):
            seen.append((seq, wal.fsync_count))
            result = advance(seq)
            if raced.is_set():
                ratcheted.set()
            return result

        anchor.advance = watched_advance
        persistence.wal = _RacingLog(wal, race)
        persistence.attach(fresh_remote())
        try:
            assert ratcheted.wait(5.0)
            assert parked.is_set()
            assert (wal.last_seq, wal.fsync_count) == (2, 1)
            # Under ``always`` one returned fsync covers one record.
            assert all(seq <= fsyncs for seq, fsyncs in seen), seen
            assert anchor.read() == 1
            assert wal.durable_seq == 1
        finally:
            gate.set()
            appender.join(timeout=5.0)
            persistence.wal = wal
            persistence.close()
        assert not appender.is_alive()
        assert wal.durable_seq == 2
        assert anchor.read() == 2  # the clean close ratchets the rest

