"""Sharded SL-Remote: the hash ring, the router, and fleet-wide invariants."""

import pytest

from repro.core.protocol import InitRequest, InitResponse, RenewRequest, \
    ShutdownNotice, Status
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net.aio import AsyncLeaseServer
from repro.net.endpoint import connect, endpoint_for
from repro.net.network import NetworkConditions, SimulatedLink
from repro.net.sharding import (
    HashRing,
    ShardedRemote,
    default_shard_names,
)
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.rng import DeterministicRng

POOL = 50_000


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        """Two rings from the same names agree on every key — the
        property that lets client and fleet route without coordination
        (sha256, immune to PYTHONHASHSEED)."""
        names = default_shard_names(4)
        a, b = HashRing(names), HashRing(names)
        keys = [f"lic-{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(default_shard_names(4))
        owners = {ring.shard_for(f"lic-{i}") for i in range(200)}
        assert owners == set(ring.shard_names)

    def test_distribution_roughly_balanced(self):
        ring = HashRing(default_shard_names(4))
        counts = {name: 0 for name in ring.shard_names}
        for i in range(1000):
            counts[ring.shard_for(f"lic-{i}")] += 1
        # With 64 virtual points per shard, no shard should own more
        # than half of 1000 uniform keys (fair share is 250).
        assert max(counts.values()) < 500
        assert min(counts.values()) > 50

    def test_growing_the_ring_only_moves_keys_to_the_new_shard(self):
        """The consistent-hashing contract: adding shard N+1 remaps only
        the keys the new shard takes; nothing reshuffles between the
        existing shards."""
        before = HashRing(default_shard_names(3))
        after = HashRing(default_shard_names(4))
        for i in range(300):
            key = f"lic-{i}"
            if after.shard_for(key) != before.shard_for(key):
                assert after.shard_for(key) == "shard-3"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            HashRing([])
        with pytest.raises(ValueError, match="unique"):
            HashRing(["a", "a"])
        with pytest.raises(ValueError, match="replicas"):
            HashRing(["a"], replicas=0)
        with pytest.raises(ValueError, match="count"):
            default_shard_names(0)


class TestOwnersPlacement:
    """Properties of ``owners(key, k)`` the depth-K control plane rests
    on: disjoint distinct successors, stability under membership churn,
    and the removal identity that makes deep failover routable."""

    KEYS = [f"lic-{i}" for i in range(150)]

    def test_owners_are_distinct_and_lead_with_the_primary(self):
        ring = HashRing(default_shard_names(6))
        for key in self.KEYS:
            for k in range(1, 7):
                owners = ring.owners(key, k)
                assert len(owners) == len(set(owners)) == k
                assert owners[0] == ring.shard_for(key)

    def test_owner_count_clamps_to_the_ring_size(self):
        ring = HashRing(default_shard_names(3))
        for key in self.KEYS[:20]:
            assert len(ring.owners(key, 10)) == 3
            assert sorted(ring.owners(key, 10)) == \
                sorted(ring.shard_names)

    def test_deeper_owner_lists_are_prefix_stable(self):
        """owners(key, k) is always a prefix of owners(key, k+1) — a
        fleet raising its replication depth keeps every existing
        placement and only appends new followers."""
        ring = HashRing(default_shard_names(7))
        for key in self.KEYS:
            for k in range(1, 6):
                assert ring.owners(key, k + 1)[:k] == ring.owners(key, k)

    def test_removing_the_primary_shifts_owners_by_one(self):
        """The failover identity at every depth: once a key's primary
        leaves the ring, owners(key, k) equals what the old
        owners(key, k+1) promised as the survivors' order."""
        ring = HashRing(default_shard_names(6))
        for key in self.KEYS:
            for k in (2, 3, 4):
                before = ring.owners(key, k + 1)
                survivors = ring.remove_shard(before[0])
                assert survivors.owners(key, k) == before[1:]

    def test_adding_a_shard_preserves_uninvolved_placements(self):
        """Membership growth only inserts the new shard into owner
        lists; the relative order of the existing shards never
        changes (no gratuitous re-replication)."""
        ring = HashRing(default_shard_names(5))
        grown = ring.add_shard("shard-new")
        for key in self.KEYS:
            before = ring.owners(key, 3)
            after = [name for name in grown.owners(key, 4)
                     if name != "shard-new"]
            assert after[:3] == before


# ----------------------------------------------------------------------
# ShardedRemote: in-process fleet behind the standard surface
# ----------------------------------------------------------------------
def build_sharded(shards=3, licenses=6, seed=7, transport="serialized"):
    """A sharded fleet plus a raw client endpoint over a loopback wire."""
    sharded = ShardedRemote(
        RemoteAttestationService(accept_any_platform=True), shards=shards
    )
    blobs = {}
    for index in range(licenses):
        license_id = f"lic-{index}"
        blobs[license_id] = sharded.issue_license(
            license_id, POOL
        ).license_blob()
    link = SimulatedLink(NetworkConditions(), DeterministicRng(seed))
    scheme = {"in-process": "sl+inproc", "serialized": "sl+serialized"}
    endpoint = connect(f"{scheme[transport]}://", remote=sharded, link=link)
    return sharded, blobs, endpoint


def raw_init(endpoint, machine, slid=None, nonce=1):
    report = machine.local_authority.generate_report(1, 1, nonce=nonce)
    return endpoint.call(
        "init",
        InitRequest(slid=slid, report=report,
                    platform_secret=machine.platform_secret),
        clock=machine.clock, stats=machine.stats,
    )


def raw_renew(endpoint, machine, slid, license_id, blob):
    return endpoint.call(
        "renew",
        RenewRequest(slid=slid, license_id=license_id, license_blob=blob,
                     network_reliability=1.0, health=1.0),
        clock=machine.clock,
    )


class TestShardedRemoteRouting:
    def test_licenses_land_on_their_ring_owner(self):
        sharded, blobs, _ = build_sharded()
        for license_id in blobs:
            owner = sharded.shard_for(license_id)
            for name, shard in sharded.shards.items():
                if name == owner:
                    assert license_id in shard.license_ids()
                else:
                    assert license_id not in shard.license_ids()

    def test_init_is_mirrored_to_every_shard(self):
        """One init: the home shard allocates the SLID, every other
        shard is admitted so license traffic anywhere recognises it."""
        sharded, _, endpoint = build_sharded()
        machine = SgxMachine("mirror")
        response = raw_init(endpoint, machine)
        assert isinstance(response, InitResponse)
        assert response.status is Status.OK
        for shard in sharded.shards.values():
            assert response.slid in shard._clients
        assert sharded.inits_served == 1  # home only; mirrors are admits

    def test_renewals_route_and_grant_across_shards(self):
        sharded, blobs, endpoint = build_sharded()
        machine = SgxMachine("renewer")
        slid = raw_init(endpoint, machine).slid
        for license_id, blob in blobs.items():
            response = raw_renew(endpoint, machine, slid, license_id, blob)
            assert response.status is Status.OK
            owner = sharded.shard_of(license_id)
            assert owner.ledger(license_id).outstanding[f"slid:{slid}"] \
                == response.granted_units

    def test_fleet_spans_multiple_shards(self):
        """The fixture licenses genuinely exercise > 1 shard (guards the
        cross-shard tests against a degenerate placement)."""
        sharded, blobs, _ = build_sharded()
        assert len({sharded.shard_for(lid) for lid in blobs}) >= 2


class TestCrashWriteOffAcrossShards:
    def probe_conserves(self, sharded):
        probe = sharded.ledger_probe()
        for license_id, entry in probe.items():
            assert entry["outstanding"] + entry["lost"] + entry["available"] \
                == entry["total"], f"{license_id} leaked units"
        return probe

    def test_crash_reinit_writes_off_on_every_shard(self):
        """A crash re-init through the router write-offs holdings on
        *all* shards, not just home — the cross-shard half of the
        pessimistic-loss story (Section 5.7)."""
        sharded, blobs, endpoint = build_sharded()
        machine = SgxMachine("crasher")
        slid = raw_init(endpoint, machine).slid
        for license_id, blob in blobs.items():
            assert raw_renew(endpoint, machine, slid, license_id,
                             blob).status is Status.OK
        owners = {sharded.shard_for(lid) for lid in blobs}
        assert len(owners) >= 2

        # Re-init with the same SLID and no graceful shutdown: crash.
        response = raw_init(endpoint, machine, slid=slid, nonce=2)
        assert response.status is Status.OK
        assert response.old_backup_key is None

        probe = self.probe_conserves(sharded)
        for license_id in blobs:
            assert probe[license_id]["outstanding"] == 0
            assert probe[license_id]["lost"] > 0

    def test_graceful_shutdown_keeps_holdings_on_license_shards(self):
        """Shutdown is home-only: escrow changes hands, outstanding
        units on the license shards stay put for the restart."""
        sharded, blobs, endpoint = build_sharded()
        machine = SgxMachine("graceful")
        slid = raw_init(endpoint, machine).slid
        for license_id, blob in blobs.items():
            raw_renew(endpoint, machine, slid, license_id, blob)
        outstanding_before = {
            lid: sharded.ledger(lid).outstanding.get(f"slid:{slid}", 0)
            for lid in blobs
        }

        status = endpoint.call(
            "shutdown", ShutdownNotice(slid=slid, root_key=123),
            clock=machine.clock,
        )
        assert status is Status.OK
        reinit = raw_init(endpoint, machine, slid=slid, nonce=3)
        assert reinit.old_backup_key == 123  # escrow round-tripped
        for license_id in blobs:
            assert sharded.ledger(license_id).outstanding.get(
                f"slid:{slid}", 0) == outstanding_before[license_id]
        self.probe_conserves(sharded)

    def test_probe_for_one_license_routes_to_owner(self):
        sharded, blobs, _ = build_sharded()
        license_id = next(iter(blobs))
        probe = sharded.ledger_probe(license_id)
        assert set(probe) == {license_id}
        assert probe[license_id]["total"] == POOL


class TestShardedRemoteAsDropIn:
    def test_full_sl_local_lifecycle(self):
        """A complete client stack (SL-Manager -> SL-Local) runs against
        a ShardedRemote exactly as against a single SlRemote."""
        sharded, blobs, endpoint = build_sharded(transport="serialized")
        machine = SgxMachine("lifecycle")
        sl_local = SlLocal(machine, endpoint,
                           KeyGenerator(DeterministicRng(3)),
                           tokens_per_attestation=10)
        sl_local.init()
        manager = SlManager("app", machine, sl_local,
                            tokens_per_attestation=10)
        license_id = next(iter(blobs))
        manager.load_license(license_id, blobs[license_id])
        assert sum(manager.check(license_id) for _ in range(30)) == 30
        sl_local.shutdown()
        home = sharded.home_shard
        assert home._clients[sl_local.slid].graceful_shutdown

    def test_revoked_license_denied_through_the_router(self):
        sharded, blobs, endpoint = build_sharded()
        machine = SgxMachine("revoked")
        slid = raw_init(endpoint, machine).slid
        license_id = next(iter(blobs))
        sharded.revoke_license(license_id)
        response = raw_renew(endpoint, machine, slid, license_id,
                             blobs[license_id])
        assert response.status is Status.REVOKED


# ----------------------------------------------------------------------
# The wire-level fleet: N lease servers, one routed client
# ----------------------------------------------------------------------
class TestShardedTcp:
    @pytest.fixture()
    def fleet(self):
        """Two real TCP servers, each one shard of a two-shard ring."""
        names = default_shard_names(2)
        ring = HashRing(names)
        ras = RemoteAttestationService(accept_any_platform=True)
        remotes = {name: SlRemote(ras) for name in names}
        blobs = {}
        for index in range(4):
            license_id = f"lic-{index}"
            owner = ring.shard_for(license_id)
            blobs[license_id] = remotes[owner].issue_license(
                license_id, POOL
            ).license_blob()
        servers = [AsyncLeaseServer(remotes[name], port=0) for name in names]
        for server in servers:
            server.start()
        try:
            yield remotes, blobs, [server.address for server in servers], ring
        finally:
            for server in servers:
                server.stop()

    def test_lifecycle_across_two_processes_worth_of_shards(self, fleet):
        remotes, blobs, addresses, ring = fleet
        endpoint = connect(endpoint_for(addresses))
        machine = SgxMachine("tcp-fleet")
        try:
            slid = raw_init(endpoint, machine).slid
            for license_id, blob in blobs.items():
                response = raw_renew(endpoint, machine, slid, license_id, blob)
                assert response.status is Status.OK
                owner = remotes[ring.shard_for(license_id)]
                assert owner.ledger(license_id).outstanding[f"slid:{slid}"] \
                    == response.granted_units
            # Identity was mirrored over the wire too.
            for remote in remotes.values():
                assert slid in remote._clients
        finally:
            endpoint.close()

    def test_crash_broadcast_over_the_wire(self, fleet):
        remotes, blobs, addresses, _ = fleet
        endpoint = connect(endpoint_for(addresses))
        machine = SgxMachine("tcp-crash")
        try:
            slid = raw_init(endpoint, machine).slid
            for license_id, blob in blobs.items():
                raw_renew(endpoint, machine, slid, license_id, blob)
            raw_init(endpoint, machine, slid=slid, nonce=2)  # crash re-init
            for remote in remotes.values():
                probe = remote.handle_ledger_probe()
                for license_id, entry in probe.items():
                    assert entry["outstanding"] == 0
                    assert entry["outstanding"] + entry["lost"] \
                        + entry["available"] == entry["total"]
        finally:
            endpoint.close()

    def test_address_name_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one shard name per address"):
            connect("sl+sharded://127.0.0.1:1?names=a,b")
