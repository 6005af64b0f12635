"""Replication + failover: delta streams, lag budget, promotion, membership.

The invariants under test are the paper's pessimistic-loss rule scoped
to the replication-lag window:

* a shard never has more than ``lag_budget_units`` granted-but-unacked
  units per license in flight (the ``grant_headroom`` clamp), so
* a promotion that reserves ``min(available, budget)`` as lost covers
  every grant the dead primary made that its follower never saw —
  zero double-mints, bounded forfeiture, and
* membership changes (ring add) migrate licenses online with zero
  failed client calls.
"""

import threading
import time

import pytest

from repro.core.protocol import InitRequest, RenewRequest, ShutdownNotice, \
    Status
from repro.core.sl_remote import SlRemote
from repro.net import codec
from repro.net.replication import (
    BootstrapChunk,
    DEFAULT_LAG_BUDGET_UNITS,
    FollowerStore,
    LocalPeerLink,
    PeerLink,
    ReplicaBatch,
    ReplicaDelta,
    ReplicationManager,
    ReplicationSource,
    ShardSnapshot,
    _wire_available,
)
from repro.net.sharding import HashRing, ShardedRemote
from repro.net.transport import HandlerTable
from repro.sgx import RemoteAttestationService, SgxMachine

POOL = 50_000


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
_BACKGROUND_PREFIXES = ("replication-", "wal-maintenance-")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Teardown-ordering guard: every shipper/persistence thread a test
    starts must be stopped by the time it ends — ``close()`` has to stop
    replication and persistence *before* the transport goes away, and
    nothing may outlive the test."""
    yield
    deadline = time.time() + 5.0
    def leaked():
        return [t.name for t in threading.enumerate()
                if t.is_alive() and t.name.startswith(_BACKGROUND_PREFIXES)]
    while leaked() and time.time() < deadline:
        time.sleep(0.01)
    assert leaked() == []


class RecordingPeer(PeerLink):
    """A peer link that records every call and can be made to fail."""

    def __init__(self):
        self.calls = []
        self.failing = False

    def call(self, method, payload):
        if self.failing:
            raise ConnectionError("peer down")
        self.calls.append((method, payload))
        return {"status": "ok"}

    def of(self, method):
        return [payload for m, payload in self.calls if m == method]


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


# ----------------------------------------------------------------------
# Source side: capture, routing, the lag-budget clamp
# ----------------------------------------------------------------------
class TestReplicationSource:
    def build(self, budget=DEFAULT_LAG_BUDGET_UNITS):
        remote = fresh_remote()
        peer = RecordingPeer()
        source = ReplicationSource(
            remote, "a", peers={"b": peer},
            followers_for=lambda lid: ["b"], lag_budget_units=budget,
        )
        return remote, peer, source

    def test_deltas_captured_in_commit_order_with_increasing_seq(self):
        remote, _peer, source = self.build()
        blob = remote.issue_license("lic", POOL).license_blob()
        machine, slid = init_client(remote)
        renew(remote, slid, "lic", blob)
        remote.return_units(slid, "lic", 1)
        events = [d.event for d in source._pending]
        assert events == ["issue", "admit", "grant", "return"]
        seqs = [d.seq for d in source._pending]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_fresh_follower_needs_a_snapshot_before_deltas_flow(self):
        """Every peer starts snapshot-dirty: deltas are dropped (a
        snapshot supersedes them) until the first anti-entropy pass."""
        remote, peer, source = self.build()
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        renew(remote, slid, "lic", blob)
        source.flush_now()
        assert peer.calls == []
        assert source.deltas_dropped > 0
        source.snapshot_now()
        assert [m for m, _ in peer.calls] == ["sync_snapshot"]
        renew(remote, slid, "lic", blob)
        source.flush_now()
        assert [m for m, _ in peer.calls][-1] == "replicate"

    def test_snapshot_carries_only_the_followers_licenses(self):
        remote = fresh_remote()
        peer_b, peer_c = RecordingPeer(), RecordingPeer()
        placement = {"lic-b": ["b"], "lic-c": ["c"]}
        source = ReplicationSource(
            remote, "a", peers={"b": peer_b, "c": peer_c},
            followers_for=lambda lid: placement.get(lid, []),
        )
        remote.issue_license("lic-b", POOL)
        remote.issue_license("lic-c", POOL)
        source.snapshot_now()
        (snap_b,) = peer_b.of("sync_snapshot")
        (snap_c,) = peer_c.of("sync_snapshot")
        assert sorted(snap_b.licenses) == ["lic-b"]
        assert sorted(snap_c.licenses) == ["lic-c"]

    def test_identity_deltas_broadcast_to_every_peer(self):
        remote = fresh_remote()
        peer_b, peer_c = RecordingPeer(), RecordingPeer()
        source = ReplicationSource(
            remote, "a", peers={"b": peer_b, "c": peer_c},
            followers_for=lambda lid: ["b"],
        )
        source.snapshot_now()
        _machine, slid = init_client(remote)
        remote.handle_shutdown(ShutdownNotice(slid=slid, root_key=99))
        source.flush_now()
        for peer in (peer_b, peer_c):
            (batch,) = peer.of("replicate")
            assert "escrow" in [d.event for d in batch.deltas]

    def test_grant_headroom_clamps_to_the_lag_budget(self):
        remote, _peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        first = renew(remote, slid, "lic", blob)
        assert first.status is Status.OK
        assert 0 < first.granted_units <= 16
        # Nothing flushed since: the budget is spent, the next renew is
        # denied — and the denial must not leak phantom outstanding.
        second = renew(remote, slid, "lic", blob)
        if first.granted_units == 16:
            assert second.status is Status.EXHAUSTED
        ledger = remote.ledger("lic")
        assert sum(ledger.outstanding.values()) == (
            first.granted_units
            + (second.granted_units if second.status is Status.OK else 0)
        )
        assert ledger.available + sum(ledger.outstanding.values()) \
            + ledger.lost_units == POOL

    def test_flush_acks_grants_and_restores_headroom(self):
        remote, _peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        renew(remote, slid, "lic", blob)
        assert source.grant_headroom("lic") < 16
        source.flush_now()
        # The flush both acked the grant and shipped the adapted
        # (grant-denominated) budget: headroom is fully restored at the
        # new, larger scale.
        assert source._unacked == {}
        assert source.grant_headroom("lic") == source.shipped_budget("lic")
        assert source.shipped_budget("lic") >= 16

    def test_spent_budget_wakes_the_flusher_before_its_tick(self):
        """A grant that leaves a follower no room ships at once: the
        next renewal of that license must not be refused for a whole
        ``flush_interval``.  A grant that leaves room waits its tick."""
        remote = fresh_remote()
        peer = RecordingPeer()
        source = ReplicationSource(
            remote, "a", peers={"b": peer}, followers_for=lambda lid: ["b"],
            lag_budget_units=16, flush_interval=30.0,
        )
        blob = remote.issue_license("lic", POOL).license_blob()
        small = remote.issue_license("small", 20).license_blob()
        _machine, slid = init_client(remote)
        source.start()
        try:
            deadline = time.monotonic() + 5.0
            while not peer.of("sync_snapshot"):
                assert time.monotonic() < deadline, "no bootstrap snapshot"
                time.sleep(0.005)
            inside = renew(remote, slid, "small", small)
            assert 0 < inside.granted_units < 16
            assert not source._wake.is_set()
            time.sleep(0.1)
            assert source._pending[-1].event == "grant"  # not shipped
            spent = renew(remote, slid, "lic", blob)
            assert spent.granted_units == 16  # the whole shipped budget
            deadline = time.monotonic() + 1.0
            while source.grant_headroom("lic") == 0:
                assert time.monotonic() < deadline, \
                    "spent budget waited out the flush tick"
                time.sleep(0.005)
        finally:
            source.stop()

    def test_broken_peer_heals_through_the_next_snapshot(self):
        remote, peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        peer.failing = True
        renew(remote, slid, "lic", blob)
        source.flush_now()
        assert "b" in source._needs_snapshot
        assert source.grant_headroom("lic") < 16  # unacked until resync
        peer.failing = False
        source.snapshot_now()
        assert "b" not in source._needs_snapshot
        # The snapshot covered the unacked grant (and shipped the
        # adapted budget): full headroom again.
        assert source._unacked == {}
        assert source.grant_headroom("lic") == source.shipped_budget("lic")

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="lag_budget_units"):
            self.build(budget=0)


# ----------------------------------------------------------------------
# The adaptive (grant-denominated) lag budget
# ----------------------------------------------------------------------
class TestAdaptiveLagBudget:
    def build(self, budget=16, grants=4):
        remote = fresh_remote()
        peer = RecordingPeer()
        source = ReplicationSource(
            remote, "a", peers={"b": peer},
            followers_for=lambda lid: ["b"],
            lag_budget_units=budget, lag_budget_grants=grants,
        )
        return remote, peer, source

    def test_budget_scales_with_the_observed_grant_size(self):
        """One half-pool grant must not consume the whole budget forever:
        after a flush ships the adapted budget, the next grant clears
        the old unit floor instead of seeing EXHAUSTED backpressure."""
        remote, _peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        first = renew(remote, slid, "lic", blob)
        assert first.status is Status.OK
        assert first.granted_units <= 16  # floor until a budget ships
        source.flush_now()
        second = renew(remote, slid, "lic", blob)
        assert second.status is Status.OK
        assert second.granted_units > 16  # the budget adapted

    def test_clamp_only_trusts_the_shipped_budget(self):
        """A grown budget the follower never received must not loosen
        the clamp — the promotion reserve is keyed on what the follower
        knows, so grants beyond it would be double-mintable."""
        remote, peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        peer.failing = True  # nothing ships from here on
        first = renew(remote, slid, "lic", blob)
        source.flush_now()  # fails; budget not shipped, grant not acked
        assert source.desired_budget("lic") > 16  # it *wants* to grow
        assert source.shipped_budget("lic") == 16  # but nothing shipped
        headroom = source.grant_headroom("lic")
        assert headroom == 16 - first.granted_units

    def test_budgets_ride_batches_and_snapshots(self):
        remote, peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        renew(remote, slid, "lic", blob)
        source.flush_now()
        (batch,) = peer.of("replicate")
        assert batch.budgets["lic"] == source.shipped_budget("lic")
        source.snapshot_now()
        snapshot = peer.of("sync_snapshot")[-1]
        assert snapshot.budgets["lic"] >= 16

    def test_desired_budget_is_capped_by_the_pool_fraction(self):
        remote, _peer, source = self.build(budget=16)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        renew(remote, slid, "lic", blob)
        assert source.desired_budget("lic") <= int(
            POOL * source.pool_fraction
        )

    def test_follower_reserve_uses_the_per_license_budget(self):
        store = FollowerStore()
        store.apply_snapshot(ShardSnapshot(
            source="a", seq=0, budget=32,
            licenses={"lic": wire_record("lic")},
            identity={"next_slid": 1, "clients": {}},
            budgets={"lic": 500},
        ))
        manager = ReplicationManager(fresh_remote(), "b")
        manager.store = store
        result = manager.handle_promote({"source": "a", "epoch": 1})
        assert result["installed"] == {"lic": 500}
        assert manager.remote.ledger("lic").lost_units == 500

    def test_follower_budgets_never_shrink(self):
        """The source may have clamped against any budget it ever
        shipped, so a replayed smaller value must not lower the bound
        the reserve honours."""
        store = FollowerStore()
        store.apply_batch(ReplicaBatch(
            source="a", budget=32, deltas=(), budgets={"lic": 500},
        ))
        store.apply_batch(ReplicaBatch(
            source="a", budget=32, deltas=(), budgets={"lic": 100},
        ))
        assert store._sources["a"].budget_for("lic") == 500

    def test_budgets_survive_the_wire(self):
        batch = ReplicaBatch(source="a", budget=32, deltas=(),
                             budgets={"lic": 321})
        assert codec.decode_value(codec.encode_value(batch)) == batch
        snapshot = ShardSnapshot(
            source="a", seq=1, budget=32, licenses={}, identity={},
            budgets={"lic": 77},
        )
        roundtrip = codec.decode_value(codec.encode_value(snapshot))
        assert roundtrip == snapshot
        assert roundtrip.budgets == {"lic": 77}


# ----------------------------------------------------------------------
# Follower side: idempotent delta application, snapshot supersedes
# ----------------------------------------------------------------------
def wire_record(license_id="lic", total=POOL):
    remote = fresh_remote()
    remote.issue_license(license_id, total)
    return remote.export_license_state(license_id)


def snapshot_of(license_id="lic", seq=0, budget=32):
    return ShardSnapshot(
        source="a", seq=seq, budget=budget,
        licenses={license_id: wire_record(license_id)},
        identity={"next_slid": 1, "clients": {}},
    )


class TestFollowerStore:
    def test_batches_are_idempotent_by_seq(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of())
        batch = ReplicaBatch(source="a", budget=32, deltas=(
            ReplicaDelta(1, "grant", {"license_id": "lic",
                                      "node_key": "slid:1", "units": 8}),
        ))
        store.apply_batch(batch)
        store.apply_batch(batch)  # replay: must not double-apply
        record = store._sources["a"].licenses["lic"]
        assert record["ledger"]["outstanding"]["slid:1"] == 8
        assert store.deltas_applied == 1
        assert store.deltas_skipped == 0

    def test_grant_return_writeoff_mutate_the_replica_ledger(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of())
        deltas = (
            ReplicaDelta(1, "grant", {"license_id": "lic",
                                      "node_key": "slid:1", "units": 10}),
            ReplicaDelta(2, "return", {"license_id": "lic",
                                       "node_key": "slid:1", "units": 3}),
            ReplicaDelta(3, "writeoff", {"license_id": "lic",
                                         "node_key": "slid:1", "units": 7}),
            ReplicaDelta(4, "revoke", {"license_id": "lic"}),
        )
        store.apply_batch(ReplicaBatch(source="a", budget=32, deltas=deltas))
        record = store._sources["a"].licenses["lic"]
        assert record["ledger"]["outstanding"]["slid:1"] == 0
        assert record["ledger"]["lost_units"] == 7
        assert record["holdings"].get("1") is None  # written off
        assert record["definition"]["revoked"] is True

    def test_unknown_license_deltas_wait_for_the_snapshot(self):
        store = FollowerStore()
        batch = ReplicaBatch(source="a", budget=32, deltas=(
            ReplicaDelta(1, "grant", {"license_id": "ghost",
                                      "node_key": "slid:1", "units": 8}),
        ))
        store.apply_batch(batch)
        assert store.deltas_skipped == 1
        assert store._sources["a"].licenses == {}
        # The snapshot then reconciles wholesale, seq watermark included.
        store.apply_snapshot(snapshot_of("ghost", seq=1))
        assert "ghost" in store._sources["a"].licenses

    def test_escrow_deltas_maintain_identity_and_slid_watermark(self):
        store = FollowerStore()
        store.apply_batch(ReplicaBatch(source="a", budget=32, deltas=(
            ReplicaDelta(1, "escrow", {"slid": 7, "root_key": 1234}),
        )))
        identity = store._sources["a"].identity
        assert identity["clients"]["7"]["escrowed_root_key"] == 1234
        assert identity["clients"]["7"]["graceful_shutdown"] is True
        assert identity["next_slid"] == 8
        store.apply_batch(ReplicaBatch(source="a", budget=32, deltas=(
            ReplicaDelta(2, "escrow_clear", {"slid": 7}),
        )))
        assert identity["clients"]["7"]["escrowed_root_key"] is None

    def test_snapshot_supersedes_any_replica_state(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of(seq=5))
        store.apply_batch(ReplicaBatch(source="a", budget=32, deltas=(
            ReplicaDelta(6, "grant", {"license_id": "lic",
                                      "node_key": "slid:1", "units": 8}),
        )))
        store.apply_snapshot(snapshot_of(seq=9))
        record = store._sources["a"].licenses["lic"]
        assert record["ledger"]["outstanding"] == {}  # fresh export won
        assert store._sources["a"].last_seq == 9


# ----------------------------------------------------------------------
# Promotion: the pessimistic reserve, scoped to the lag window
# ----------------------------------------------------------------------
class TestPromotion:
    def test_reserve_is_min_of_available_and_budget(self):
        manager = ReplicationManager(fresh_remote(), "b")
        manager.store.apply_snapshot(snapshot_of(budget=32))
        result = manager.handle_promote({"source": "a", "epoch": 1})
        assert result["already"] is False
        assert result["installed"] == {"lic": 32}
        ledger = manager.remote.ledger("lic")
        assert ledger.lost_units == 32
        assert ledger.available == POOL - 32

    def test_reserve_never_exceeds_what_is_left(self):
        manager = ReplicationManager(fresh_remote(), "b")
        record = wire_record("lic", total=10)  # poorer than the budget
        manager.store.apply_snapshot(ShardSnapshot(
            source="a", seq=0, budget=32, licenses={"lic": record},
            identity={"next_slid": 1, "clients": {}},
        ))
        result = manager.handle_promote({"source": "a", "epoch": 1})
        assert result["installed"] == {"lic": 10}
        assert manager.remote.ledger("lic").available == 0

    def test_promotion_is_idempotent(self):
        manager = ReplicationManager(fresh_remote(), "b")
        manager.store.apply_snapshot(snapshot_of(budget=32))
        first = manager.handle_promote({"source": "a", "epoch": 1})
        again = manager.handle_promote({"source": "a", "epoch": 1})
        assert again["already"] is True
        assert again["installed"] == first["installed"]
        assert manager.remote.ledger("lic").lost_units == 32  # not 64

    def test_promotion_with_nothing_replicated_is_answerable(self):
        manager = ReplicationManager(fresh_remote(), "b")
        result = manager.handle_promote({"source": "a", "epoch": 1})
        assert result == {"status": "ok", "already": False, "installed": {},
                          "epoch": 1}

    def test_promoted_identity_preserves_escrow(self):
        manager = ReplicationManager(fresh_remote(), "b")
        manager.store.apply_snapshot(ShardSnapshot(
            source="a", seq=0, budget=32, licenses={},
            identity={"next_slid": 9, "clients": {
                "4": {"escrowed_root_key": 777, "graceful_shutdown": True},
            }},
        ))
        manager.handle_promote({"source": "a", "epoch": 1})
        assert manager.remote._clients[4].escrowed_root_key == 777

    def test_promotion_serves_renewals_afterwards(self):
        source_remote = fresh_remote()
        blob = source_remote.issue_license("lic", POOL).license_blob()
        machine, slid = init_client(source_remote)
        manager = ReplicationManager(fresh_remote(), "b")
        link = LocalPeerLink(manager)
        replication = ReplicationSource(
            source_remote, "a", peers={"b": link},
            followers_for=lambda lid: ["b"], lag_budget_units=32,
        )
        replication.snapshot_now()
        granted = renew(source_remote, slid, "lic", blob).granted_units
        replication.flush_now()
        manager.handle_promote({"source": "a", "epoch": 1})
        follower = manager.remote
        # Identity snapshots admitted the client; the grant replicated.
        ledger = follower.ledger("lic")
        assert ledger.outstanding[f"slid:{slid}"] == granted
        response = renew(follower, slid, "lic", blob)
        assert response.status is Status.OK


# ----------------------------------------------------------------------
# End to end: the in-process fleet survives a shard kill
# ----------------------------------------------------------------------
def build_fleet(licenses=4, budget=32):
    sharded = ShardedRemote(
        RemoteAttestationService(accept_any_platform=True),
        shards=3, replicas=1, lag_budget_units=budget,
    )
    blobs = {}
    for index in range(licenses):
        license_id = f"lic-{index}"
        blobs[license_id] = sharded.issue_license(
            license_id, POOL
        ).license_blob()
    machine = SgxMachine("fleet-client")
    report = machine.local_authority.generate_report(1, 1, nonce=1)
    response = sharded.router.request(
        "init",
        InitRequest(slid=None, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    )
    assert response.status is Status.OK
    # The bootstrap anti-entropy pass the flusher thread would run.
    sharded.snapshot_now()
    return sharded, blobs, machine, response.slid


def fleet_renew(sharded, machine, slid, license_id, blob):
    return sharded.router.request("renew", RenewRequest(
        slid=slid, license_id=license_id, license_blob=blob,
        network_reliability=1.0, health=1.0,
    ), clock=machine.clock)


class TestFailover:
    def test_kill_a_primary_promotes_its_follower(self):
        sharded, blobs, machine, slid = build_fleet(budget=32)
        license_id = next(iter(blobs))
        victim = sharded.shard_for(license_id)
        follower = sharded.ring.owners(license_id, 2)[1]
        granted = 0
        for _ in range(3):
            response = fleet_renew(sharded, machine, slid, license_id,
                                   blobs[license_id])
            granted += response.granted_units
            sharded.replicate_now()
        sharded.kill_shard(victim)
        response = fleet_renew(sharded, machine, slid, license_id,
                               blobs[license_id])
        assert response.status is Status.OK
        granted += response.granted_units
        assert sharded.router.failovers == 1
        assert sharded.router.shards_failed == [victim]
        assert victim not in sharded.ring.shard_names
        assert sharded.shard_for(license_id) == follower
        # Conservation on the promoted ledger: everything the client was
        # ever granted is covered by outstanding + the lost reserve.
        probe = sharded.ledger_probe(license_id)[license_id]
        assert granted <= probe["outstanding"] + probe["lost"]
        assert probe["outstanding"] + probe["lost"] + probe["available"] \
            == probe["total"]

    def test_forfeiture_is_bounded_by_the_lag_window(self):
        budget = 24
        sharded, blobs, machine, slid = build_fleet(budget=budget)
        license_id = next(iter(blobs))
        victim = sharded.shard_for(license_id)
        # Replicated grants (flushed), then unreplicated ones the
        # follower never hears about before the kill.  The budget is
        # adaptive (grant-denominated): the bound the clamp enforces —
        # and the most a promotion may forfeit — is the budget the
        # victim had successfully *shipped* to its follower.
        seen = fleet_renew(sharded, machine, slid, license_id,
                           blobs[license_id]).granted_units
        assert 0 < seen <= budget  # nothing shipped yet: floor applies
        sharded.replicate_now()
        shipped = sharded.managers[victim].source.shipped_budget(license_id)
        assert shipped >= budget  # the flush grew the budget with the peak
        unseen = fleet_renew(sharded, machine, slid, license_id,
                             blobs[license_id]).granted_units
        assert 0 < unseen <= shipped  # the clamp held at the new scale
        sharded.kill_shard(victim)
        response = fleet_renew(sharded, machine, slid, license_id,
                               blobs[license_id])
        assert response.status is Status.OK
        probe = sharded.ledger_probe(license_id)[license_id]
        # The pessimistic reserve forfeits at most the shipped budget
        # but at least every unseen grant — no unit is ever minted twice.
        assert unseen <= probe["lost"] <= shipped
        total_granted = seen + unseen + response.granted_units
        assert total_granted <= probe["outstanding"] + probe["lost"]

    def test_promoted_shard_grants_past_the_lag_budget(self):
        # Regression: after promotion the adopted licenses have no live
        # follower, so the lag clamp must not apply — a promoted shard
        # that kept counting unackable grants would wedge at EXHAUSTED
        # after one budget's worth of units.
        budget = 8
        sharded, blobs, machine, slid = build_fleet(budget=budget)
        license_id = next(iter(blobs))
        victim = sharded.shard_for(license_id)
        sharded.kill_shard(victim)
        granted_after_kill = 0
        while granted_after_kill <= 2 * budget:
            response = fleet_renew(sharded, machine, slid, license_id,
                                   blobs[license_id])
            assert response.status is Status.OK
            assert response.granted_units > 0
            granted_after_kill += response.granted_units
            machine.clock.advance(120)

    def test_every_license_survives_the_kill(self):
        sharded, blobs, machine, slid = build_fleet(licenses=8)
        for license_id, blob in blobs.items():
            assert fleet_renew(sharded, machine, slid, license_id,
                               blob).status is Status.OK
        sharded.replicate_now()
        victim = sharded.shard_for(next(iter(blobs)))
        sharded.kill_shard(victim)
        for license_id, blob in blobs.items():
            response = fleet_renew(sharded, machine, slid, license_id, blob)
            assert response.status is Status.OK
        for license_id, entry in sharded.ledger_probe(None).items():
            assert entry["outstanding"] + entry["lost"] \
                + entry["available"] == entry["total"]

    def test_killing_the_home_shard_moves_identity(self):
        sharded, blobs, machine, slid = build_fleet()
        home = sharded.router.home
        sharded.kill_shard(home)
        # Any license owned by the dead home triggers the failover; if
        # none is, a home-scoped call does.
        for license_id, blob in blobs.items():
            fleet_renew(sharded, machine, slid, license_id, blob)
        sharded.router.request(
            "shutdown", ShutdownNotice(slid=slid, root_key=42),
            clock=machine.clock,
        )
        assert sharded.router.home != home
        new_home = sharded.shards[sharded.router.home]
        assert new_home._clients[slid].escrowed_root_key == 42

    def test_failover_without_replicas_stays_an_error(self):
        sharded = ShardedRemote(
            RemoteAttestationService(accept_any_platform=True),
            shards=3, replicas=0,
        )
        blob = sharded.issue_license("lic", POOL).license_blob()
        machine = SgxMachine("unreplicated")
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        slid = sharded.router.request(
            "init",
            InitRequest(slid=None, report=report,
                        platform_secret=machine.platform_secret),
            clock=machine.clock, stats=machine.stats,
        ).slid
        from repro.net.errors import DialError

        sharded.kill_shard(sharded.shard_for("lic"))
        with pytest.raises(DialError):
            fleet_renew(sharded, machine, slid, "lic", blob)


# ----------------------------------------------------------------------
# Membership: ring add migrates online, under load, losing nothing
# ----------------------------------------------------------------------
class TestOnlineMembership:
    def test_hash_ring_add_remove_derive_new_rings(self):
        ring = HashRing(["a", "b"])
        grown = ring.add_shard("c")
        assert set(grown.shard_names) == {"a", "b", "c"}
        assert set(ring.shard_names) == {"a", "b"}  # original untouched
        shrunk = grown.remove_shard("c")
        assert set(shrunk.shard_names) == {"a", "b"}
        with pytest.raises(ValueError, match="already on the ring"):
            ring.add_shard("a")
        with pytest.raises(ValueError, match="is not on the ring"):
            ring.remove_shard("zz")
        with pytest.raises(ValueError, match="last shard"):
            HashRing(["solo"]).remove_shard("solo")

    def test_follower_placement_is_the_post_removal_owner(self):
        """owners(key, 2)[1] must equal where the key routes once its
        owner leaves — the property failover routing relies on."""
        ring = HashRing(["a", "b", "c", "d"])
        for index in range(100):
            key = f"lic-{index}"
            owner, follower = ring.owners(key, 2)
            assert ring.remove_shard(owner).shard_for(key) == follower

    def test_ring_add_migrates_licenses_online_under_load(self):
        sharded = ShardedRemote(
            RemoteAttestationService(accept_any_platform=True), shards=2
        )
        blobs = {}
        for index in range(12):
            license_id = f"lic-{index}"
            blobs[license_id] = sharded.issue_license(
                license_id, POOL
            ).license_blob()
        machine = SgxMachine("mover")
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        slid = sharded.router.request(
            "init",
            InitRequest(slid=None, report=report,
                        platform_secret=machine.platform_secret),
            clock=machine.clock, stats=machine.stats,
        ).slid

        failures = []
        granted = {license_id: 0 for license_id in blobs}
        stop = threading.Event()

        def load():
            while not stop.is_set():
                for license_id, blob in blobs.items():
                    try:
                        response = fleet_renew(sharded, machine, slid,
                                               license_id, blob)
                    except Exception as exc:  # noqa: BLE001
                        failures.append((license_id, exc))
                        return
                    if response.status is Status.OK:
                        granted[license_id] += response.granted_units

        worker = threading.Thread(target=load)
        worker.start()
        try:
            new_remote = SlRemote(
                RemoteAttestationService(accept_any_platform=True)
            )
            table = HandlerTable(new_remote.protocol_handlers())
            moved = sharded.router.add_shard("shard-2", table.dispatch)
        finally:
            stop.set()
            worker.join(timeout=10.0)
        assert failures == []
        assert moved  # something actually migrated
        assert set(moved) == {
            license_id for license_id in blobs
            if sharded.ring.shard_for(license_id) == "shard-2"
        }
        # Migrated ledgers now live on (and are served by) the new shard
        # and the client's grants are all accounted for there.
        for license_id in moved:
            response = fleet_renew(sharded, machine, slid, license_id,
                                   blobs[license_id])
            # The load thread may legitimately have drained the pool;
            # what must hold is that the call is *served* (not dropped)
            # and every unit ever granted is on the new shard's ledger.
            assert response.status in (Status.OK, Status.EXHAUSTED)
            granted[license_id] += response.granted_units
            ledger = new_remote.ledger(license_id)
            assert ledger.outstanding[f"slid:{slid}"] == granted[license_id]
            assert sum(ledger.outstanding.values()) + ledger.lost_units \
                + ledger.available == POOL

    def test_stale_delta_to_a_migrated_license_cannot_double_count(self):
        """_wire_available (the promotion reserve input) is consistent
        with the exported ledger arithmetic."""
        record = wire_record("lic", total=100)
        record["ledger"]["outstanding"]["slid:1"] = 30
        record["ledger"]["lost_units"] = 20
        assert _wire_available(record["ledger"]) == 50


# ----------------------------------------------------------------------
# Identity quorum: init/shutdown acks wait for follower coverage
# ----------------------------------------------------------------------
class TestIdentityQuorum:
    def build_pair(self, quorum=1, **kwargs):
        follower = ReplicationManager(fresh_remote(), "b")
        remote = fresh_remote()
        primary = ReplicationManager(
            remote, "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"], quorum=quorum, **kwargs,
        )
        return remote, primary, follower

    def gated_init(self, primary, name="q-client"):
        machine = SgxMachine(name)
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        response = primary.extra_handlers()["init"](
            InitRequest(slid=None, report=report,
                        platform_secret=machine.platform_secret),
            machine.clock, machine.stats,
        )
        return machine, response

    def test_init_ack_waits_for_the_follower_admit(self):
        _remote, primary, follower = self.build_pair(quorum=1)
        _machine, response = self.gated_init(primary)
        assert response.status is Status.OK
        # By the time the client saw the ack, the follower had the
        # admit: this shard can die and the identity survives.
        identity = follower.store.identity_of("a")
        assert str(response.slid) in identity["clients"]
        assert primary.quorum_timeouts == 0

    def test_shutdown_ack_waits_for_the_escrow(self):
        remote, primary, follower = self.build_pair(quorum=1)
        _machine, response = self.gated_init(primary)
        primary.extra_handlers()["shutdown"](
            ShutdownNotice(slid=response.slid, root_key=4242)
        )
        identity = follower.store.identity_of("a")
        client = identity["clients"][str(response.slid)]
        assert client["escrowed_root_key"] == 4242
        assert primary.quorum_timeouts == 0

    def test_quorum_timeout_still_answers_and_is_counted(self):
        remote = fresh_remote()
        peer = RecordingPeer()
        peer.failing = True
        primary = ReplicationManager(
            remote, "a", peers={"b": peer},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"],
            quorum=1, quorum_timeout=0.05,
        )
        _machine, response = self.gated_init(primary, name="q-timeout")
        assert response.status is Status.OK  # bounded wait, not a refusal
        assert primary.quorum_timeouts == 1

    def test_majority_of_live_followers_is_enough(self):
        follower = ReplicationManager(fresh_remote(), "b")
        dead = RecordingPeer()
        dead.failing = True
        remote = fresh_remote()
        primary = ReplicationManager(
            remote, "a",
            peers={"b": LocalPeerLink(follower), "c": dead},
            followers_for=lambda lid: ["b", "c"],
            owners_for=lambda lid: ["a", "b", "c"],
            quorum=1, quorum_timeout=1.0,
        )
        _machine, response = self.gated_init(primary, name="q-majority")
        assert response.status is Status.OK
        assert primary.quorum_timeouts == 0

    def test_zero_quorum_mounts_no_gate(self):
        remote = fresh_remote()
        primary = ReplicationManager(
            remote, "a", peers={"b": RecordingPeer()},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"],
        )
        handlers = primary.extra_handlers()
        assert "init" not in handlers and "shutdown" not in handlers

    def test_health_surfaces_epoch_quorum_and_ack_lag(self):
        _remote, primary, _follower = self.build_pair(quorum=1)
        self.gated_init(primary, name="q-health")
        health = primary.health()
        assert health["epoch"] == 0
        assert health["quorum"] == 1
        peer = health["replicates"]["peers"]["b"]
        assert peer["ack_lag"] == 0  # the gate flushed before answering
        assert peer["fenced"] is False


# ----------------------------------------------------------------------
# Epoch fencing: a deposed primary's late deltas bounce
# ----------------------------------------------------------------------
class FencingPeer(PeerLink):
    """A follower that (once armed) answers every call as a fence."""

    def __init__(self, epoch=5):
        self.epoch = epoch
        self.fencing = False
        self.calls = []

    def call(self, method, payload):
        self.calls.append((method, payload))
        if self.fencing:
            return {"status": "fenced", "epoch": self.epoch}
        return {"status": "ok"}


class TestEpochFencing:
    def test_stale_epoch_batches_are_rejected(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of(seq=1))
        store.fence("a", 3)
        result = store.apply_batch(ReplicaBatch(
            source="a", budget=32, epoch=2, deltas=(
                ReplicaDelta(2, "grant", {"license_id": "lic",
                                          "node_key": "slid:1", "units": 8}),
            ),
        ))
        assert result["status"] == "fenced"
        record = store._sources["a"].licenses["lic"]
        assert record["ledger"]["outstanding"] == {}  # nothing applied

    def test_current_epoch_messages_pass_the_fence(self):
        store = FollowerStore()
        store.fence("a", 3)
        result = store.apply_snapshot(ShardSnapshot(
            source="a", seq=1, budget=32,
            licenses={"lic": wire_record("lic")},
            identity={"next_slid": 1, "clients": {}}, epoch=3,
        ))
        assert result["status"] == "ok"
        assert "lic" in store._sources["a"].licenses

    def test_legacy_unfenced_sources_still_replicate(self):
        store = FollowerStore()
        result = store.apply_snapshot(snapshot_of(seq=1))  # epoch 0
        assert result["status"] == "ok"

    def test_deposed_source_stops_granting(self):
        remote = fresh_remote()
        peer = FencingPeer(epoch=5)
        source = ReplicationSource(
            remote, "a", peers={"b": peer},
            followers_for=lambda lid: ["b"], lag_budget_units=16,
        )
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.snapshot_now()
        peer.fencing = True
        renew(remote, slid, "lic", blob)
        source.flush_now()
        assert source.fenced_rejections >= 1
        # A fenced source has lost the license to its successor: zero
        # headroom, every further renewal bounces as EXHAUSTED.
        assert source.grant_headroom("lic") == 0
        response = renew(remote, slid, "lic", blob)
        assert response.status is Status.EXHAUSTED
        assert remote.exhausted_served >= 1

    def test_promotion_fences_the_dead_primary(self):
        manager = ReplicationManager(fresh_remote(), "b")
        manager.store.apply_snapshot(snapshot_of(budget=32))
        result = manager.handle_promote({"source": "a", "epoch": 4})
        assert result["epoch"] == 4
        assert manager.epoch == 4
        late = manager.handle_replicate(ReplicaBatch(
            source="a", budget=32, epoch=0, deltas=(
                ReplicaDelta(6, "grant", {"license_id": "lic",
                                          "node_key": "slid:1", "units": 8}),
            ),
        ))
        assert late["status"] == "fenced"
        assert late["epoch"] == 4

    def test_promotion_epochs_ratchet(self):
        manager = ReplicationManager(fresh_remote(), "b")
        manager.handle_promote({"source": "a", "epoch": 4})
        manager.handle_promote({"source": "z", "epoch": 2})
        assert manager.epoch == 4  # never goes backwards

    def test_epoch_survives_the_wire(self):
        batch = ReplicaBatch(source="a", budget=32, deltas=(), epoch=7)
        assert codec.decode_value(codec.encode_value(batch)).epoch == 7


# ----------------------------------------------------------------------
# WAL-shipped bootstrap: cold followers rebuild from disk state
# ----------------------------------------------------------------------
class TestWalBootstrap:
    def build_durable(self, tmp_path):
        from repro.storage.wal import ShardPersistence

        remote = fresh_remote()
        persistence = ShardPersistence(str(tmp_path / "a"), name="a")
        persistence.recover(remote)
        persistence.attach(remote)
        return remote, persistence

    def test_cold_follower_rebuilds_from_snapshot_plus_wal_tail(
            self, tmp_path):
        remote, persistence = self.build_durable(tmp_path)
        try:
            blob = remote.issue_license("lic", POOL).license_blob()
            _machine, slid = init_client(remote)
            granted = renew(remote, slid, "lic", blob).granted_units
            follower = ReplicationManager(fresh_remote(), "b")
            source = ReplicationSource(
                remote, "a", peers={"b": LocalPeerLink(follower)},
                followers_for=lambda lid: ["b"], lag_budget_units=32,
            )
            source.exporter = persistence.export_bootstrap
            source.snapshot_now()  # cold peer -> WAL-shipped bootstrap
            assert source.bootstraps_sent == 1
            assert follower.store.bootstraps_applied == 1
            follower.handle_promote({"source": "a", "epoch": 1})
            ledger = follower.remote.ledger("lic")
            assert ledger.outstanding[f"slid:{slid}"] == granted
            response = renew(follower.remote, slid, "lic", blob)
            assert response.status is Status.OK
        finally:
            persistence.close()

    def test_warm_followers_are_contacted_not_rebuilt(self, tmp_path):
        remote, persistence = self.build_durable(tmp_path)
        try:
            remote.issue_license("lic", POOL)
            follower = ReplicationManager(fresh_remote(), "b")
            source = ReplicationSource(
                remote, "a", peers={"b": LocalPeerLink(follower)},
                followers_for=lambda lid: ["b"], lag_budget_units=32,
            )
            source.exporter = persistence.export_bootstrap
            source.snapshot_now()
            assert source.bootstraps_sent == 1
            assert source.reconciled["cold"] == 1
            source.snapshot_now()  # warm now: no evidence, no rebuild
            assert source.bootstraps_sent == 1
            assert source.snapshots_sent == 0
            assert follower.store.bootstraps_applied == 1
            assert follower.store.snapshots_applied == 0
        finally:
            persistence.close()

    def test_live_issue_deltas_synthesize_the_record(self):
        follower = ReplicationManager(fresh_remote(), "b")
        remote = fresh_remote()
        manager = ReplicationManager(
            remote, "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"],
        )
        manager.source.snapshot_now()  # warm the peer (empty fleet)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        granted = renew(remote, slid, "lic", blob).granted_units
        manager.source.flush_now()
        follower.handle_promote({"source": "a", "epoch": 1})
        ledger = follower.remote.ledger("lic")
        assert ledger.outstanding[f"slid:{slid}"] == granted
        # The synthesized record is complete enough to serve renewals.
        response = renew(follower.remote, slid, "lic", blob)
        assert response.status is Status.OK

    def test_bootstrap_chunks_survive_the_wire(self):
        chunk = BootstrapChunk(
            source="a", seq=3, budget=32,
            snapshot={"seq": 1, "licenses": {}},
            records=b"\x00\x01\xff", budgets={"lic": 64}, epoch=2,
        )
        rebuilt = codec.decode_value(codec.encode_value(chunk))
        assert rebuilt == chunk
        assert isinstance(rebuilt.records, bytes)

    def test_wal_export_iter_roundtrip(self, tmp_path):
        remote, persistence = self.build_durable(tmp_path)
        try:
            from repro.storage.wal import WriteAheadLog

            remote.issue_license("lic", POOL)
            snapshot, records = persistence.export_bootstrap()
            replayed = list(WriteAheadLog.iter_frames(records))
            assert [r.event for r in replayed] == ["issue"]
            assert replayed[0].fields["license_id"] == "lic"
        finally:
            persistence.close()


# ----------------------------------------------------------------------
# Supersession: a license follows its freshest stream
# ----------------------------------------------------------------------
class TestClaim:
    def test_fresh_stream_supersedes_stale_copies(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of())  # "a" streamed lic first
        store.apply_snapshot(ShardSnapshot(  # then "b" adopted it
            source="b", seq=1, budget=32,
            licenses={"lic": wire_record("lic")},
            identity={"next_slid": 1, "clients": {}},
        ))
        assert "lic" not in store._sources["a"].licenses
        assert "lic" in store._sources["b"].licenses

    def test_claim_applies_to_live_deltas_too(self):
        store = FollowerStore()
        store.apply_snapshot(snapshot_of())
        store.apply_snapshot(ShardSnapshot(
            source="b", seq=1, budget=32, licenses={},
            identity={"next_slid": 1, "clients": {}},
        ))
        store.apply_batch(ReplicaBatch(source="b", budget=32, deltas=(
            ReplicaDelta(2, "issue", {"license_id": "lic", "kind": "count",
                                      "total_units": 100}),
        )))
        assert "lic" not in store._sources["a"].licenses


# ----------------------------------------------------------------------
# Reconcile on evidence: what makes the pass rebuild a replica
# ----------------------------------------------------------------------
class StoreOnlyManager(ReplicationManager):
    """A follower that cannot synthesise ``issue`` records (it lends the
    store no secret): the record has to come from a snapshot."""

    def handle_replicate(self, batch):
        return self.store.apply_batch(batch)


def replica_of(follower, source="a"):
    return follower.store._sources[source]


class TestReconcileOnEvidence:
    def build(self, follower=None, placement=None):
        remote = fresh_remote()
        follower = follower or ReplicationManager(fresh_remote(), "b")
        placement = placement if placement is not None else {}
        source = ReplicationSource(
            remote, "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: placement.get(lid, ("b",)),
        )
        source.snapshot_now()  # cold -> warm
        assert source.reconciled == {"cold": 1, "skipped": 0,
                                     "watermark": 0, "follow_set": 0}
        return remote, source, follower

    def test_a_delta_the_follower_could_not_apply_marks_it(self):
        remote, source, follower = self.build(
            follower=StoreOnlyManager(fresh_remote(), "b"))
        remote.issue_license("lic", POOL)
        source.flush_now()  # the issue lands, but cannot be synthesised
        assert follower.store.deltas_skipped == 1
        assert source._needs_snapshot == {"b": "skipped"}
        # Nothing was acked on a replica known to be wrong.
        assert source._acked_seq.get("b", 0) == 0
        source.snapshot_now()
        assert source.reconciled["skipped"] == 1
        assert "lic" in replica_of(follower).licenses
        assert replica_of(follower).last_seq == source._acked_seq["b"]

    def test_a_follower_that_lost_its_store_is_noticed_when_idle(self):
        remote, source, follower = self.build()
        _machine, slid = init_client(remote)
        source.flush_now()
        assert str(slid) in replica_of(follower).identity["clients"]
        follower.store = FollowerStore()  # restarted, silently re-dialled
        source.snapshot_now()  # no traffic: the empty contact finds it
        assert source.reconciled["watermark"] == 1
        assert str(slid) in replica_of(follower).identity["clients"]
        assert replica_of(follower).last_seq == source._acked_seq["b"]

    def test_a_restarted_follower_never_acks_onto_an_empty_table(self):
        remote, source, follower = self.build()
        init_client(remote, name="before")
        source.flush_now()
        acked = source._acked_seq["b"]
        follower.store = FollowerStore()
        init_client(remote, name="after", nonce=2)
        source.flush_now()  # applied onto nothing: evidence, not an ack
        assert source._needs_snapshot == {"b": "watermark"}
        assert source._acked_seq["b"] == acked

    def test_a_changed_follow_set_is_rebuilt_on_both_sides(self):
        remote = fresh_remote()
        loses = ReplicationManager(fresh_remote(), "b")
        gains = ReplicationManager(fresh_remote(), "c")
        placement = {"lic": ("b",)}
        source = ReplicationSource(
            remote, "a",
            peers={"b": LocalPeerLink(loses), "c": LocalPeerLink(gains)},
            followers_for=lambda lid: placement[lid],
        )
        source.snapshot_now()
        remote.issue_license("lic", POOL)
        source.flush_now()
        assert "lic" in replica_of(loses).licenses
        assert "lic" not in replica_of(gains).licenses
        placement["lic"] = ("c",)
        source.snapshot_now()
        assert source.reconciled["follow_set"] == 2
        assert "lic" in replica_of(gains).licenses
        assert "lic" not in replica_of(loses).licenses  # no stale copy

    def test_a_route_that_flipped_and_flipped_back_is_still_noticed(self):
        """b follows, stops following while a grant ships, follows
        again before any pass: the set a pass sees is unchanged, the
        replica is not."""
        placement = {"lic": ("b",)}
        remote, source, follower = self.build(placement=placement)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.flush_now()
        placement["lic"] = ()
        granted = renew(remote, slid, "lic", blob).granted_units
        source.flush_now()
        placement["lic"] = ("b",)
        source.snapshot_now()
        ledger = replica_of(follower).licenses["lic"]["ledger"]
        assert ledger["outstanding"][f"slid:{slid}"] == granted

    def test_a_reply_without_the_evidence_keys_is_no_evidence(self):
        remote = fresh_remote()
        peer = RecordingPeer()  # answers {"status": "ok"} to everything
        source = ReplicationSource(remote, "a", peers={"b": peer},
                                   followers_for=lambda lid: ["b"])
        source.snapshot_now()
        init_client(remote)
        source.flush_now()
        source.snapshot_now()
        assert source._needs_snapshot == {}
        assert len(peer.of("sync_snapshot")) == 1
        assert source._acked_seq["b"] == source._seq

    def test_a_snapshot_resets_the_watermark_of_a_restarted_source(self):
        """A restarted source counts from 0 again: its first snapshot
        must lower the follower's watermark, or every delta of its new
        life reads as a replay of the old one."""
        store = FollowerStore()
        store.apply_snapshot(snapshot_of(seq=5000))
        store.apply_snapshot(snapshot_of(seq=3))
        reply = store.apply_batch(ReplicaBatch(
            source="a", budget=32, deltas=(
                ReplicaDelta(4, "grant", {"license_id": "lic",
                                          "node_key": "slid:1", "units": 8}),
            )))
        assert reply["prior_seq"] == 3 and reply["skipped"] == 0
        record = store._sources["a"].licenses["lic"]
        assert record["ledger"]["outstanding"]["slid:1"] == 8

    def test_a_grant_cannot_slip_between_the_export_and_the_watermark(self):
        """The snapshot and its seq are one cut.  A renewal racing the
        build waits for it and ships as a delta above the watermark; it
        must not land below it and be dropped as a replay — no later
        periodic snapshot would put it back."""
        placement = {"lic": ("b",)}
        remote, source, follower = self.build(placement=placement)
        blob = remote.issue_license("lic", POOL).license_blob()
        _machine, slid = init_client(remote)
        source.flush_now()
        race = {}
        export = remote.export_license_state

        def export_then_race(license_id):
            record = export(license_id)
            race["thread"] = threading.Thread(target=lambda: race.update(
                response=renew(remote, slid, "lic", blob)))
            race["thread"].start()
            race["thread"].join(timeout=0.2)  # held off by the cut
            return record

        remote.export_license_state = export_then_race
        follower.store = FollowerStore()  # evidence: forces a rebuild
        source.snapshot_now()
        del remote.export_license_state
        race["thread"].join(timeout=5.0)
        assert not race["thread"].is_alive()
        assert race["response"].granted_units > 0
        source.flush_now()
        ledger = replica_of(follower).licenses["lic"]["ledger"]
        assert ledger["outstanding"][f"slid:{slid}"] \
            == race["response"].granted_units

    def test_the_probe_reports_why_peers_were_reconciled(self):
        follower = ReplicationManager(fresh_remote(), "b")
        primary = ReplicationManager(
            fresh_remote(), "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"],
        )
        init_client(primary.remote)
        primary.source.snapshot_now()
        follower.store = FollowerStore()
        primary.source.snapshot_now()
        replicates = primary.handle_probe()["replicates"]
        assert replicates["snapshots_sent"] == 2
        assert replicates["reconciled"] == {
            "cold": 1, "skipped": 0, "watermark": 1, "follow_set": 0}


# ----------------------------------------------------------------------
# The steady state: O(what changed), one frame per peer, no introspection
# ----------------------------------------------------------------------
class CountingLink(LocalPeerLink):
    def __init__(self, manager):
        super().__init__(manager)
        self.methods = []

    def call(self, method, payload):
        self.methods.append(method)
        return super().call(method, payload)


class TestSteadyStateCost:
    def test_a_pass_over_warm_peers_touches_no_table(self, monkeypatch):
        remote = fresh_remote()
        links = {name: CountingLink(ReplicationManager(fresh_remote(), name))
                 for name in ("b", "c")}
        source = ReplicationSource(
            remote, "a", peers=links, followers_for=lambda lid: ["b"])
        blob = remote.issue_license("lic", POOL).license_blob()
        machine, slid = init_client(remote)
        for extra in range(2, 501):
            remote.handle_admit(extra)
        source.snapshot_now()  # cold -> warm, the one O(table) build
        exports = []
        for name in ("export_identity", "export_license_state"):
            original = getattr(remote, name)
            monkeypatch.setattr(
                remote, name,
                lambda *args, _name=name, _original=original:
                    exports.append(_name) or _original(*args))
        for link in links.values():
            link.methods.clear()
        for round_ in range(10):
            remote.handle_admit(501 + round_)  # traffic keeps flowing
            renew(remote, slid, "lic", blob)
            remote.return_units(slid, "lic", 1)
            source.flush_now()
            for link in links.values():
                link.methods.clear()
            source.snapshot_now()
            assert [link.methods for link in links.values()] \
                == [["replicate"], ["replicate"]]
        assert exports == []
        assert source.snapshots_sent == 2  # the warm-up, nothing since
        assert len(replica_of(links["c"].manager).identity["clients"]) == 510

    def test_local_links_resolve_their_handlers_once(self, monkeypatch):
        import inspect

        calls = {"extra_handlers": 0, "signature": 0}
        extra_handlers = ReplicationManager.extra_handlers
        signature = inspect.signature

        def counting_extra_handlers(self):
            calls["extra_handlers"] += 1
            return extra_handlers(self)

        def counting_signature(*args, **kwargs):
            calls["signature"] += 1
            return signature(*args, **kwargs)

        follower = ReplicationManager(
            fresh_remote(), "b", peers={"a": RecordingPeer()},
            followers_for=lambda lid: ["a"],
            owners_for=lambda lid: ["b", "a"], quorum=1,
        )
        monkeypatch.setattr(ReplicationManager, "extra_handlers",
                            counting_extra_handlers)
        monkeypatch.setattr(inspect, "signature", counting_signature)
        link = LocalPeerLink(None)  # the way sharding.py builds them
        link.manager = follower
        batch = ReplicaBatch(source="a", budget=32, deltas=())
        for _ in range(1000):
            assert link.call("replicate", batch)["status"] == "ok"
        assert calls["extra_handlers"] <= 1
        assert calls["signature"] == 0


# ----------------------------------------------------------------------
# What must not change: the quorum rule, its tail bound, the fence
# ----------------------------------------------------------------------
class HungPeer(PeerLink):
    """A network peer whose every call blocks for ``delay`` seconds
    (or until the test lets go of it)."""

    def __init__(self, delay):
        self.delay = delay
        self.let_go = threading.Event()

    def call(self, method, payload):
        self.let_go.wait(timeout=self.delay)
        return {"status": "ok"}


class WithholdingLink(PeerLink):
    """A network link (not in-process: the flusher ships) that pauses
    the first delta-carrying batch until ``proceed`` and withholds the
    ack of anything above ``hold_above`` until ``release``."""

    def __init__(self, manager):
        self.inner = LocalPeerLink(manager)
        self.hold_above = None
        self.shipping = threading.Event()
        self.proceed = threading.Event()
        self.release = threading.Event()

    def call(self, method, payload):
        if method == "replicate" and payload.deltas:
            if not self.shipping.is_set():
                self.shipping.set()
                assert self.proceed.wait(timeout=10.0)
            elif payload.deltas[-1].seq > self.hold_above:
                assert self.release.wait(timeout=10.0)
        return self.inner.call(method, payload)


class TestQuorumRuleUnchanged:
    def init_request(self, name):
        machine = SgxMachine(name)
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        return machine, InitRequest(slid=None, report=report,
                                    platform_secret=machine.platform_secret)

    def test_a_gated_init_returns_only_once_the_follower_holds_it(self):
        """Flusher running, two request threads: each ack leaves after
        the follower store holds that admit, and the follower applied
        the stream in seq order whichever thread shipped it."""
        follower = ReplicationManager(fresh_remote(), "b")
        applied = []
        apply_batch = follower.store.apply_batch

        def recording_apply(batch, **kwargs):
            applied.extend(delta.seq for delta in batch.deltas)
            return apply_batch(batch, **kwargs)

        follower.store.apply_batch = recording_apply
        primary = ReplicationManager(
            fresh_remote(), "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"], quorum=1,
        )
        init = primary.extra_handlers()["init"]
        primary.source.snapshot_now()  # warm: every admit rides a batch
        failures = []

        def enroll(lane):
            for index in range(40):
                machine, request = self.init_request(f"lane{lane}-{index}")
                response = init(request, machine.clock, machine.stats)
                clients = follower.store.identity_of("a")["clients"]
                if str(response.slid) not in clients:
                    failures.append(response.slid)

        primary.start()
        try:
            lanes = [threading.Thread(target=enroll, args=(lane,))
                     for lane in range(2)]
            for lane in lanes:
                lane.start()
            for lane in lanes:
                lane.join(timeout=30.0)
                assert not lane.is_alive()
        finally:
            primary.stop()
        assert failures == []
        assert primary.quorum_timeouts == 0
        assert applied == sorted(applied) and len(applied) == 80

    def test_a_hung_network_peer_cannot_stretch_the_quorum_timeout(self):
        peer = HungPeer(delay=3.0)
        assert peer.in_process is False
        primary = ReplicationManager(
            fresh_remote(), "a", peers={"b": peer},
            followers_for=lambda lid: ["b"],
            owners_for=lambda lid: ["a", "b"],
            quorum=1, quorum_timeout=0.2, snapshot_interval=30.0,
        )
        primary.start()
        try:
            machine, request = self.init_request("q-hung")
            started = time.monotonic()
            response = primary.extra_handlers()["init"](request, machine.clock,
                                           machine.stats)
            elapsed = time.monotonic() - started
        finally:
            peer.let_go.set()
            primary.stop()
        assert response.status is Status.OK
        assert elapsed < 0.2 + 0.5  # the waiter never made the call
        assert primary.quorum_timeouts == 1

    def test_a_waiter_does_not_wait_for_later_enrolments(self):
        """The watermark is read once, on entry: a second connection's
        identity write — appended behind the first, its ack withheld —
        must not hold the first waiter's ack."""
        link = WithholdingLink(ReplicationManager(fresh_remote(), "b"))
        remote = fresh_remote()
        source = ReplicationSource(
            remote, "a", peers={"b": link}, followers_for=lambda lid: ["b"],
            flush_interval=30.0, snapshot_interval=60.0,
        )
        source.start()  # the flusher warms the peer, then sleeps
        acked = []
        waiter = threading.Thread(target=lambda: acked.append(
            source.wait_identity_quorum(1, timeout=5.0)))
        try:
            deadline = time.monotonic() + 5.0
            while source._needs_snapshot:
                assert time.monotonic() < deadline, "peer never warmed"
                time.sleep(0.005)
            init_client(remote, name="first")
            link.hold_above = source._identity_seq
            waiter.start()
            # Only the waiter wakes this flusher, and only after it
            # read its watermark: the first batch is now mid-flight.
            assert link.shipping.wait(timeout=5.0)
            init_client(remote, name="second", nonce=2)
            link.proceed.set()
            waiter.join(timeout=2.0)
            assert not waiter.is_alive(), \
                "held for an identity write made after its own"
            assert acked == [True]
            assert source._acked_seq["b"] == link.hold_above
        finally:
            link.proceed.set()
            link.release.set()
            waiter.join(timeout=10.0)
            source.stop()

    def test_an_idle_fenced_source_learns_it_within_two_passes(self):
        remote = fresh_remote()
        follower = ReplicationManager(fresh_remote(), "b")
        source = ReplicationSource(
            remote, "a", peers={"b": LocalPeerLink(follower)},
            followers_for=lambda lid: ["b"],
        )
        remote.issue_license("lic", POOL)
        source.snapshot_now()
        assert source.grant_headroom("lic") > 0
        follower.handle_promote({"source": "a", "epoch": 3})
        for _ in range(2):  # no client traffic, no deltas
            source.snapshot_now()
        assert source.grant_headroom("lic") == 0
        assert source._fenced == {"b": 3}


# ----------------------------------------------------------------------
# Depth-K fleets: two simultaneous deaths, quorum promotion
# ----------------------------------------------------------------------
def build_deep_fleet(shards=5, replicas=2, licenses=6, budget=32):
    sharded = ShardedRemote(
        RemoteAttestationService(accept_any_platform=True),
        shards=shards, replicas=replicas, lag_budget_units=budget,
    )
    blobs = {}
    for index in range(licenses):
        license_id = f"lic-{index}"
        blobs[license_id] = sharded.issue_license(
            license_id, POOL
        ).license_blob()
    machine = SgxMachine("deep-client")
    report = machine.local_authority.generate_report(1, 1, nonce=1)
    response = sharded.router.request(
        "init",
        InitRequest(slid=None, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    )
    assert response.status is Status.OK
    sharded.snapshot_now()
    return sharded, blobs, machine, response.slid


def renew_with_failover(sharded, machine, slid, license_id, blob,
                        attempts=4):
    from repro.net.errors import DialError

    for _ in range(attempts):
        try:
            return fleet_renew(sharded, machine, slid, license_id, blob)
        except DialError:
            continue
    raise AssertionError(f"renewal of {license_id} never recovered")


class TestDepthK:
    def test_depth_clamps_to_the_fleet_size(self):
        sharded = ShardedRemote(
            RemoteAttestationService(accept_any_platform=True),
            shards=2, replicas=5,
        )
        assert sharded.replication_depth == 1
        sharded.close()

    def test_deltas_stream_to_every_ring_successor(self):
        sharded, blobs, machine, slid = build_deep_fleet()
        license_id = next(iter(blobs))
        fleet_renew(sharded, machine, slid, license_id, blobs[license_id])
        sharded.replicate_now()
        owner, *followers = sharded.ring.owners(license_id, 3)
        assert len(followers) == 2
        for follower in followers:
            store = sharded.managers[follower].store
            record = store._sources[owner].licenses[license_id]
            assert record["ledger"]["outstanding"][f"slid:{slid}"] > 0
        sharded.close()

    def test_double_kill_falls_through_to_the_second_follower(self):
        sharded, blobs, machine, slid = build_deep_fleet()
        license_id = next(iter(blobs))
        owner, first, second = sharded.ring.owners(license_id, 3)
        granted = fleet_renew(sharded, machine, slid, license_id,
                              blobs[license_id]).granted_units
        sharded.replicate_now()
        # Both the owner AND its first follower die before anyone
        # promotes: depth-2 means the second follower still has the
        # ledger and must win the quorum promotion.
        sharded.kill_shard(owner)
        sharded.kill_shard(first)
        response = renew_with_failover(sharded, machine, slid, license_id,
                                       blobs[license_id])
        assert response.status is Status.OK
        granted += response.granted_units
        assert sharded.shard_for(license_id) == second
        probe = sharded.ledger_probe(license_id)[license_id]
        assert granted <= probe["outstanding"] + probe["lost"]
        assert probe["outstanding"] + probe["lost"] + probe["available"] \
            == probe["total"]
        sharded.close()

    def test_every_license_survives_two_simultaneous_kills(self):
        sharded, blobs, machine, slid = build_deep_fleet(licenses=8)
        granted = {}
        for license_id, blob in blobs.items():
            granted[license_id] = fleet_renew(
                sharded, machine, slid, license_id, blob
            ).granted_units
        sharded.replicate_now()
        victims = sharded.ring.shard_names[:2]
        for victim in victims:
            sharded.kill_shard(victim)
        for license_id, blob in blobs.items():
            response = renew_with_failover(sharded, machine, slid,
                                           license_id, blob)
            assert response.status is Status.OK
            granted[license_id] += response.granted_units
        for victim in victims:
            assert victim not in sharded.ring.shard_names
        # Zero double-mints: every unit ever granted is accounted for
        # as outstanding or forfeited on the promoted ledgers.
        for license_id, entry in sharded.ledger_probe(None).items():
            assert granted.get(license_id, 0) \
                <= entry["outstanding"] + entry["lost"]
            assert entry["outstanding"] + entry["lost"] \
                + entry["available"] == entry["total"]
        sharded.close()

    def test_failover_promotes_the_max_epoch_max_seq_survivor(self):
        sharded, blobs, machine, slid = build_deep_fleet()
        license_id = next(iter(blobs))
        owner = sharded.shard_for(license_id)
        fleet_renew(sharded, machine, slid, license_id, blobs[license_id])
        sharded.replicate_now()
        sharded.kill_shard(owner)
        renew_with_failover(sharded, machine, slid, license_id,
                            blobs[license_id])
        # The promotion bumped every survivor past epoch 0 and the
        # survivors agree on it.
        epochs = {name: manager.epoch
                  for name, manager in sharded.managers.items()
                  if name in sharded.ring.shard_names}
        assert set(epochs.values()) == {1}
        sharded.close()


# ----------------------------------------------------------------------
# Teardown ordering: close() stops shippers before transports
# ----------------------------------------------------------------------
class TestTeardownOrdering:
    def test_close_stops_replication_and_persistence(self, tmp_path):
        sharded = ShardedRemote(
            RemoteAttestationService(accept_any_platform=True),
            shards=3, replicas=1, data_dir=str(tmp_path),
        )
        sharded.issue_license("lic", POOL)
        sharded.start_replication()
        assert any(t.name.startswith("replication-")
                   for t in threading.enumerate() if t.is_alive())
        sharded.close()
        assert not any(t.name.startswith(_BACKGROUND_PREFIXES)
                       for t in threading.enumerate() if t.is_alive())

    def test_close_is_idempotent(self, tmp_path):
        sharded = ShardedRemote(
            RemoteAttestationService(accept_any_platform=True),
            shards=3, replicas=1, data_dir=str(tmp_path),
        )
        sharded.start_replication()
        sharded.close()
        sharded.close()  # second close must be a no-op, not a crash
