"""Sharded SL-Remote: consistent-hash partitioning and a shard router.

One vendor server dies at one core.  This module partitions the license
ledgers across N :class:`~repro.core.sl_remote.SlRemote` shards and
routes the lease protocol so the fleet behaves like a single server:

* :class:`HashRing` — a deterministic, sha256-based consistent-hash
  ring mapping ``license_id`` -> shard name.  No Python ``hash()``
  anywhere: the mapping must agree across processes and runs
  (``PYTHONHASHSEED`` randomises ``hash()``).  ``add_shard`` /
  ``remove_shard`` derive the ring for a changed fleet, and
  ``owners(key, n)`` walks the successor list — the ring position a key
  falls to when its owner leaves, which is exactly where replication
  places its follower.
* :class:`ShardRouter` — the routing brain, working over any set of
  per-shard dispatch callables (in-process handler tables or TCP
  transports alike).  With ``failover`` armed it also *heals*: a dead
  shard (:class:`~repro.net.errors.DialError`) triggers a ``promote``
  broadcast to the survivors, ring removal, and a retry on the
  license's new owner; a :class:`~repro.core.protocol.MigratingNotice`
  answer triggers a bounded retry-after loop that follows the notice's
  ``new_owner`` redirect.
* :class:`ShardedRemote` — N in-process shards behind the standard
  ``protocol_handlers()`` surface; a drop-in for ``SlRemote`` anywhere
  a remote is wired (``Cluster``, ``SecureLeaseDeployment``,
  ``AsyncLeaseServer``).  ``replicas=1`` wires a
  :class:`~repro.net.replication.ReplicationManager` per shard over
  in-process peer links.
* :class:`ShardRouterTransport` — the client-side router over N
  ``serve-remote`` processes (one per shard, started with
  ``--shard-of``), built by ``connect("sl+sharded://h1:p1,h2:p2")``
  with addresses **in ring order**: the i-th address must be the worker
  started with ``--shard-of i:N`` (or with the i-th ``names=`` entry),
  otherwise the client's ring disagrees with the fleet's license
  placement.

Routing rules (the SLID-vs-license partitioning decision)
---------------------------------------------------------
License-scoped traffic (``renew``, ``return_units``, ``ledger_probe``
with a license) goes to the ring owner of the ``license_id`` — that
shard holds the one authoritative ledger, so per-license unit
conservation needs no cross-shard coordination.

SLID-scoped traffic cannot hash the same way (an ``init`` has no
license, and one client holds licenses on many shards), so identity is
**pinned to a home shard** — the first shard name on the ring, which
allocates SLIDs, verifies remote attestation once (not N times), and
escrows root keys — and then **mirrored**: after a successful init the
router broadcasts ``admit(slid)`` to every other shard so renewals
there recognise the client, and when the home shard's response reveals
a crash re-init (a re-init answered without an old-backup key) it
broadcasts ``crash(slid)`` so every shard writes off the holdings *it*
tracks.  ``shutdown`` stays home-only: escrow lives there, and a
graceful restart must leave outstanding units untouched on the license
shards.  The net effect: write-offs and grants always mutate a ledger
under its owning shard's license lock, so conservation holds per shard
and therefore fleet-wide.

Membership changes (``ShardRouter.add_shard`` / ``remove_shard``)
migrate each affected license online: freeze on the old owner (clients
get a retry-after :class:`~repro.core.protocol.MigratingNotice`),
export -> install on the new owner, then release with a tombstone that
redirects stale routers — including routers that never heard about the
new shard, which dial it straight from the tombstone's ``name=host:port``.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.licensefile import VENDOR_SECRET
from repro.core.protocol import (
    BatchRequest,
    BatchResponse,
    InitResponse,
    MigratingNotice,
    Status,
)
from repro.core.renewal import RenewalPolicy
from repro.core.sl_remote import LicenseDefinition, SlRemote
from repro.net.endpoint import EndpointConfig
from repro.net.errors import DialError, Migrating, TransportError
from repro.net.replication import (
    DEFAULT_LAG_BUDGET_GRANTS,
    DEFAULT_LAG_BUDGET_UNITS,
    LocalPeerLink,
    PeerLink,
    ReplicationManager,
)
from repro.storage.wal import ShardPersistence, attach_persistence
from repro.net.transport import HandlerTable, Transport
from repro.sgx.driver import SgxStats
from repro.sim.clock import Clock, ThreadSafeClock

#: A per-shard dispatch callable: (method, payload, clock, stats) -> response.
DispatchFn = Callable[..., Any]

#: Methods routed by the license id carried in their payload.
_LICENSE_SCOPED = ("renew", "return_units")


def _sha256_point(data: bytes) -> int:
    """A 64-bit ring position from sha256 (deterministic across runs)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto named shards.

    Each shard contributes ``replicas`` virtual points so load spreads
    evenly; a key belongs to the first point clockwise from its own
    hash.  Adding or removing one shard only remaps the keys that
    belonged to it — the property that lets a fleet grow without
    re-homing every license.
    """

    def __init__(self, shard_names: Sequence[str], replicas: int = 64) -> None:
        if not shard_names:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(shard_names)) != len(shard_names):
            raise ValueError("shard names must be unique")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shard_names = tuple(shard_names)
        self.replicas = replicas
        points = []
        for name in self.shard_names:
            for replica in range(replicas):
                point = _sha256_point(f"{name}#{replica}".encode("utf-8"))
                points.append((point, name))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [name for _, name in points]

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (deterministic, sha256-based)."""
        point = _sha256_point(key.encode("utf-8"))
        index = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[index]

    def owners(self, key: str, count: int = 1) -> List[str]:
        """The first ``count`` *distinct* shards clockwise from ``key``.

        ``owners(key, 2)[1]`` is where ``key`` lands if its owner is
        removed — every virtual point of the owner yields to the next
        distinct shard on the walk — which is why replication uses it
        as the follower placement rule: failover routing and replica
        placement agree by construction.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        point = _sha256_point(key.encode("utf-8"))
        index = bisect.bisect_right(self._points, point)
        found: List[str] = []
        for offset in range(len(self._points)):
            name = self._owners[(index + offset) % len(self._points)]
            if name not in found:
                found.append(name)
                if len(found) == count:
                    break
        return found

    def add_shard(self, name: str) -> "HashRing":
        """A new ring with ``name`` joined (this ring is unchanged)."""
        if name in self.shard_names:
            raise ValueError(f"shard {name!r} is already on the ring")
        return HashRing((*self.shard_names, name), replicas=self.replicas)

    def remove_shard(self, name: str) -> "HashRing":
        """A new ring with ``name`` departed (this ring is unchanged)."""
        if name not in self.shard_names:
            raise ValueError(f"shard {name!r} is not on the ring")
        remaining = tuple(n for n in self.shard_names if n != name)
        if not remaining:
            raise ValueError("cannot remove the last shard")
        return HashRing(remaining, replicas=self.replicas)

    def __len__(self) -> int:
        return len(self.shard_names)


def default_shard_names(count: int) -> List[str]:
    """The canonical names for an N-shard fleet (``shard-0`` .. ``shard-N-1``).

    Both sides of the wire — ``serve-remote --shard-of I:N`` workers and
    ``sl+sharded://`` clients — derive the same names, so their rings
    agree without exchanging configuration.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    return [f"shard-{index}" for index in range(count)]


class ShardRouter:
    """Routes lease-protocol calls across per-shard dispatch callables.

    The router is transport-agnostic: a backend is any callable with the
    dispatch signature, so the same routing logic serves the in-process
    :class:`ShardedRemote` (backends are ``HandlerTable.dispatch``) and
    the wire-level :class:`ShardRouterTransport` (backends are
    ``Transport.request``).

    ``failover=True`` arms self-healing: a backend raising
    :class:`~repro.net.errors.DialError` is declared dead, ``promote``
    is broadcast to every survivor (each folds the replicas it holds
    for the dead shard into its serving state — idempotently, so any
    number of routers may race to report the same death), the dead
    shard leaves the ring, and the call retries on the new owner.

    ``connect_backend(name, host, port)`` (optional) lets the router
    dial shards it first hears about from a migration tombstone;
    ``addresses`` maps shard name -> ``"host:port"`` so the tombstones
    *this* router writes carry a dialable address; ``on_shard_down`` is
    told when a backend leaves (transports close their socket there).
    """

    def __init__(self, backends: Mapping[str, DispatchFn],
                 ring: Optional[HashRing] = None,
                 home: Optional[str] = None,
                 config: Optional[EndpointConfig] = None,
                 failover: bool = False,
                 connect_backend: Optional[Callable[..., DispatchFn]] = None,
                 addresses: Optional[Mapping[str, str]] = None,
                 on_shard_down: Optional[Callable[[str], None]] = None) -> None:
        if not backends:
            raise ValueError("a shard router needs at least one backend")
        self.backends: Dict[str, DispatchFn] = dict(backends)
        names = list(self.backends)
        self.ring = ring if ring is not None else HashRing(names)
        for name in self.ring.shard_names:
            if name not in self.backends:
                raise ValueError(f"ring names shard {name!r} with no backend")
        #: Identity authority: SLIDs, attestation, escrow (see module doc).
        self.home = home if home is not None else self.ring.shard_names[0]
        if self.home not in self.backends:
            raise ValueError(f"home shard {self.home!r} has no backend")
        self.failover = failover
        self.migrate_retries = (config.migrate_retries if config is not None
                                else EndpointConfig().migrate_retries)
        self.connect_backend = connect_backend
        self.addresses: Dict[str, str] = dict(addresses or {})
        self.on_shard_down = on_shard_down
        self._lock = threading.Lock()
        #: Serializes dialing (and identity-syncing) a tombstone-learned
        #: shard, so exactly one transport per name is ever published.
        self._learn_lock = threading.Lock()
        #: Tombstone redirects learned from MigratingNotice answers and
        #: local migrations: license_id -> shard name (overrides ring).
        self._moves: Dict[str, str] = {}
        self._admin_lock = threading.Lock()
        self._admin_clock = ThreadSafeClock()
        self.failovers = 0
        self.shards_failed: List[str] = []
        self.migrations = 0

    # -- placement -----------------------------------------------------
    def shard_for(self, license_id: str) -> str:
        return self.ring.shard_for(license_id)

    def _owner_of(self, license_id: str) -> str:
        with self._lock:
            moved = self._moves.get(license_id)
            if moved is not None and moved in self.backends:
                return moved
            return self.ring.shard_for(license_id)

    def _license_key(self, method: str, payload: Any) -> str:
        if method == "renew":
            return payload.license_id
        # return_units travels as the plain tuple (slid, license_id, units).
        return payload[1]

    # -- the routed round trip -----------------------------------------
    def request(self, method: str, payload: Any,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        if method in _LICENSE_SCOPED:
            return self._license_call(self._license_key(method, payload),
                                      method, payload, clock, stats)
        if method == "renew_batch":
            return self._batch_call(payload, clock, stats)
        if method == "init":
            return self._routed_init(payload, clock, stats)
        if method == "ledger_probe":
            # Payload is a license id, or the dict form carrying a
            # detail level ({"license_id": ..., "detail": ...}); a
            # missing/None license id fans out across the whole fleet.
            license_id = payload
            if isinstance(payload, dict):
                license_id = payload.get("license_id")
            if license_id is None:
                return self._fleet_probe(method, payload, clock, stats)
            return self._license_call(license_id, method, payload,
                                      clock, stats)
        # Everything SLID-scoped (shutdown, admit, crash) and anything
        # unrecognised is pinned to the home shard; unknown methods fail
        # there with the standard dispatch error.
        return self._home_call(method, payload, clock, stats)

    def _license_call(self, license_id: str, method: str, payload: Any,
                      clock: Optional[Clock], stats: Optional[SgxStats]):
        waits = 0
        while True:
            owner = self._owner_of(license_id)
            backend = self.backends.get(owner)
            if backend is None:
                continue  # owner changed under us; re-resolve
            try:
                response = backend(method, payload, clock=clock, stats=stats)
            except DialError:
                if not self._arm_failover():
                    raise
                self._failover(owner, clock, stats)
                continue
            if isinstance(response, MigratingNotice):
                if self._learn_move(license_id, response, clock, stats):
                    continue  # redirect known; retry immediately
                waits += 1
                if waits > self.migrate_retries:
                    raise Migrating(
                        f"license {license_id!r} is still migrating after "
                        f"{self.migrate_retries} retries",
                        license_id=license_id,
                        retry_after_seconds=response.retry_after_seconds,
                        new_owner=response.new_owner,
                    )
                time.sleep(response.retry_after_seconds)
                continue
            return response

    def _batch_call(self, batch: BatchRequest,
                    clock: Optional[Clock], stats: Optional[SgxStats]):
        """Split a renewal batch by ring owner and rejoin the replies.

        Each owner gets one sub-batch carrying its licenses' members (so
        a coalesced frame stays coalesced shard-by-shard), owners are
        visited in sorted order for deterministic lock acquisition
        downstream, and the positional replies are stitched back into
        submission order.  A :class:`~repro.core.protocol.MigratingNotice`
        slot re-drives just that member through the single-renewal path,
        which follows redirects and absorbs bounded retry-after waits —
        one migrating license never fails a whole batch.
        """
        requests = list(batch.requests)
        responses: List[Any] = [None] * len(requests)
        pending = list(range(len(requests)))
        while pending:
            by_owner: Dict[str, List[int]] = {}
            for index in pending:
                owner = self._owner_of(requests[index].license_id)
                by_owner.setdefault(owner, []).append(index)
            pending = []
            for owner in sorted(by_owner):
                indices = by_owner[owner]
                backend = self.backends.get(owner)
                if backend is None:
                    pending.extend(indices)  # owner changed; re-resolve
                    continue
                sub = BatchRequest(
                    requests=tuple(requests[i] for i in indices)
                )
                try:
                    reply = backend("renew_batch", sub, clock=clock,
                                    stats=stats)
                except DialError:
                    if not self._arm_failover():
                        raise
                    self._failover(owner, clock, stats)
                    pending.extend(indices)
                    continue
                if not isinstance(reply, BatchResponse) \
                        or len(reply.responses) != len(indices):
                    raise TransportError(
                        f"shard {owner!r} answered a batch of "
                        f"{len(indices)} renewals with "
                        f"{type(reply).__name__}"
                    )
                for index, slot in zip(indices, reply.responses):
                    if isinstance(slot, MigratingNotice):
                        self._learn_move(requests[index].license_id, slot,
                                         clock, stats)
                        responses[index] = self._license_call(
                            requests[index].license_id, "renew",
                            requests[index], clock, stats,
                        )
                    else:
                        responses[index] = slot
        return BatchResponse(responses=tuple(responses))

    def _home_call(self, method: str, payload: Any,
                   clock: Optional[Clock], stats: Optional[SgxStats]):
        while True:
            home = self.home
            backend = self.backends.get(home)
            if backend is None:
                continue  # failover re-homed concurrently
            try:
                return backend(method, payload, clock=clock, stats=stats)
            except DialError:
                if not self._arm_failover():
                    raise
                self._failover(home, clock, stats)

    def _fleet_probe(self, method: str, payload: Any,
                     clock: Optional[Clock], stats: Optional[SgxStats]):
        # Fleet-wide audit: fan out and merge (license ids are disjoint
        # across shards by construction).  A death mid-probe fails over
        # and restarts the merge so promoted ledgers are not missed.
        while True:
            merged: Dict[str, Any] = {}
            name = None
            try:
                for name in list(self.backends):
                    backend = self.backends.get(name)
                    if backend is None:
                        continue
                    merged.update(backend(method, payload, clock=clock,
                                          stats=stats))
                return merged
            except DialError:
                if not self._arm_failover():
                    raise
                self._failover(name, clock, stats)

    def _routed_init(self, payload: Any,
                     clock: Optional[Clock], stats: Optional[SgxStats]):
        """Home-shard init + identity mirror + crash broadcast."""
        response = self._home_call("init", payload, clock, stats)
        if not isinstance(response, InitResponse):
            return response
        if response.status is not Status.OK or response.slid is None:
            return response
        was_reinit = getattr(payload, "slid", None) is not None
        crashed = was_reinit and response.old_backup_key is None
        for name in list(self.backends):
            if name == self.home:
                continue
            backend = self.backends.get(name)
            if backend is None:
                continue
            try:
                backend("admit", response.slid, clock=clock, stats=stats)
                if crashed:
                    backend("crash", response.slid, clock=clock, stats=stats)
            except DialError:
                if not self._arm_failover():
                    raise
                self._failover(name, clock, stats)
        return response

    # -- failover ------------------------------------------------------
    def _arm_failover(self) -> bool:
        return self.failover and len(self.backends) > 1

    def _learn_move(self, license_id: str, notice: MigratingNotice,
                    clock: Optional[Clock] = None,
                    stats: Optional[SgxStats] = None) -> bool:
        """Follow a tombstone redirect; False when all we can do is wait."""
        target = notice.new_owner
        if not target:
            return False
        name, _, address = target.partition("=")
        with self._lock:
            known = name in self.backends
            home_backend = self.backends.get(self.home)
        if not known:
            if not (address and self.connect_backend):
                return False
            host, _, port_text = address.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                return False
            with self._learn_lock:
                with self._lock:
                    known = name in self.backends
                if not known:
                    backend = self.connect_backend(name, host, port)
                    # A shard this router first hears about from a
                    # tombstone has never seen this router's admit
                    # broadcasts: every SLID this router initialised
                    # after the shard joined is unknown there.  Mirror
                    # the home shard's identity registry (the authority
                    # — every init lands at home) before publishing the
                    # backend, so no request races ahead of the sync.
                    # install_identity merges, so replays are harmless.
                    if home_backend is not None:
                        try:
                            identity = home_backend("export_identity", None,
                                                    clock=clock, stats=stats)
                            backend("install_identity", identity,
                                    clock=clock, stats=stats)
                        except Exception:  # noqa: BLE001 - a failed sync
                            pass  # resurfaces as UNKNOWN_CLIENT, as before
                    with self._lock:
                        self.backends[name] = backend
                        self.addresses[name] = address
        with self._lock:
            self._moves[license_id] = name
        return True

    def _failover(self, dead: Optional[str],
                  clock: Optional[Clock], stats: Optional[SgxStats]):
        """Declare ``dead`` dead: probe + promote survivors, shrink the ring.

        Survivors are probed first and ranked by ``(epoch, last_seq)``
        for the dead source — the max-epoch, max-seq survivor holds the
        freshest replica, so it promotes first (installing the adopted
        ledgers before anyone else answers for them), and the epoch
        broadcast with ``promote`` is one past the fleet maximum so
        every follower fences the deposed shard's late traffic.
        """
        if dead is None:
            return
        with self._lock:
            if dead not in self.backends:
                return  # another caller already buried it
            survivors = [(name, backend)
                         for name, backend in self.backends.items()
                         if name != dead]
        ranked: List[Any] = []
        max_epoch = 0
        for name, backend in survivors:
            epoch, seq = 0, -1
            try:
                probe = backend("replication_probe", None,
                                clock=clock, stats=stats)
                epoch = int(probe.get("epoch", 0))
                seq = int(probe.get("follows", {})
                          .get(dead, {}).get("last_seq", -1))
            except Exception:  # noqa: BLE001 - unprobeable survivor
                pass  # ranks last; promote is still attempted below
            max_epoch = max(max_epoch, epoch)
            ranked.append((epoch, seq, name, backend))
        ranked.sort(key=lambda item: (item[0], item[1], item[2]),
                    reverse=True)
        new_epoch = max_epoch + 1
        # Promotion first, removal second: a racing request that still
        # routes to the dead shard just dials, fails, and lands here too
        # (handle_promote is idempotent on the serving side).
        for _epoch, _seq, name, backend in ranked:
            try:
                backend("promote", {"source": dead, "epoch": new_epoch},
                        clock=clock, stats=stats)
            except Exception:  # noqa: BLE001 - a non-replicated or slow
                continue  # survivor cannot block the ring repair
        with self._lock:
            if dead not in self.backends:
                return
            del self.backends[dead]
            if dead in self.ring.shard_names and len(self.ring) > 1:
                self.ring = self.ring.remove_shard(dead)
            self.addresses.pop(dead, None)
            for license_id, target in list(self._moves.items()):
                if target == dead:
                    del self._moves[license_id]
            if self.home == dead:
                self.home = self.ring.shard_names[0]
            self.failovers += 1
            self.shards_failed.append(dead)
        if self.on_shard_down is not None:
            self.on_shard_down(dead)

    # -- membership (online migration) ---------------------------------
    def add_shard(self, name: str, backend: DispatchFn,
                  address: Optional[str] = None,
                  clock: Optional[Clock] = None,
                  stats: Optional[SgxStats] = None) -> List[str]:
        """Join ``name`` and migrate its keyspace to it, online.

        Every license the new ring assigns to ``name`` is frozen on its
        current shard (clients absorb bounded retry-after notices),
        exported, installed on ``name``, and released behind a redirect
        tombstone.  Returns the migrated license ids.
        """
        clock = clock if clock is not None else self._admin_clock
        with self._admin_lock:
            with self._lock:
                old_ring = self.ring
                new_ring = old_ring.add_shard(name)
                self.backends[name] = backend
                if address:
                    self.addresses[name] = address
            # The new shard must recognise every admitted client before
            # it serves renewals for migrated licenses.
            identity = self.backends[self.home](
                "export_identity", None, clock=clock, stats=stats
            )
            backend("install_identity", identity, clock=clock, stats=stats)
            moved: List[str] = []
            for owner in old_ring.shard_names:
                source = self.backends.get(owner)
                if source is None:
                    continue
                probe = source("ledger_probe", None, clock=clock, stats=stats)
                for license_id in sorted(probe):
                    if new_ring.shard_for(license_id) != name:
                        continue
                    self._migrate(license_id, owner, name, clock, stats)
                    moved.append(license_id)
            with self._lock:
                self.ring = new_ring
            return moved

    def remove_shard(self, name: str,
                     clock: Optional[Clock] = None,
                     stats: Optional[SgxStats] = None) -> List[str]:
        """Drain ``name`` and retire it from the ring, online."""
        clock = clock if clock is not None else self._admin_clock
        with self._admin_lock:
            with self._lock:
                if name not in self.ring.shard_names:
                    raise ValueError(f"shard {name!r} is not on the ring")
                if len(self.ring) == 1:
                    raise ValueError("cannot remove the last shard")
                new_ring = self.ring.remove_shard(name)
            departing = self.backends[name]
            probe = departing("ledger_probe", None, clock=clock, stats=stats)
            moved: List[str] = []
            for license_id in sorted(probe):
                target = new_ring.shard_for(license_id)
                if target == name:
                    continue
                self._migrate(license_id, name, target, clock, stats)
                moved.append(license_id)
            if self.home == name:
                # Identity authority moves with the home role.
                identity = departing("export_identity", None, clock=clock,
                                     stats=stats)
                self.backends[new_ring.shard_names[0]](
                    "install_identity", identity, clock=clock, stats=stats
                )
            with self._lock:
                self.ring = new_ring
                if self.home == name:
                    self.home = new_ring.shard_names[0]
                self.backends.pop(name, None)
                self.addresses.pop(name, None)
                for license_id, target in list(self._moves.items()):
                    if target == name:
                        del self._moves[license_id]
            if self.on_shard_down is not None:
                self.on_shard_down(name)
            return moved

    def _migrate(self, license_id: str, source: str, target: str,
                 clock: Optional[Clock], stats: Optional[SgxStats]) -> None:
        """freeze -> export -> install -> release, one license."""
        src = self.backends[source]
        dst = self.backends[target]
        src("freeze", license_id, clock=clock, stats=stats)
        record = dict(src("export_license", license_id, clock=clock,
                          stats=stats))
        record["frozen"] = False
        dst("install_license", record, clock=clock, stats=stats)
        tombstone = target
        address = self.addresses.get(target)
        if address:
            tombstone = f"{target}={address}"
        src("release", (license_id, tombstone), clock=clock, stats=stats)
        with self._lock:
            self._moves[license_id] = target
        self.migrations += 1


class _DownPeer(PeerLink):
    """A peer link to a shard that was killed (always refuses)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def call(self, method: str, payload: Any) -> Any:
        raise ConnectionError(f"peer shard {self.name!r} is down")


class ShardedRemote:
    """N in-process SL-Remote shards behind one protocol surface.

    Duck-types the ``SlRemote`` surface every wiring point uses —
    ``protocol_handlers()``, provisioning, ledger probes — so a
    :class:`~repro.net.aio.AsyncLeaseServer`, a
    :class:`~repro.cluster.Cluster`, or a deployment can swap it in
    with a ``shards=N`` knob.  Per-license locking inside each shard
    plus the partitioning here means concurrent renewals contend only
    when they target the *same* license.

    ``replicas=K`` additionally wires a
    :class:`~repro.net.replication.ReplicationManager` per shard over
    in-process peer links (each license streams to its K distinct ring
    successors) and arms the router's failover, giving the in-process
    fleet the same kill-K-shards story as the TCP one — which is what
    the replication test suite exercises deterministically via
    ``replicate_now()`` / ``snapshot_now()`` / ``kill_shard()``.
    ``quorum=N`` gates ``init``/``shutdown`` acks on N follower acks
    of the identity watermark (0/None = off for in-process fleets;
    the CLI defaults TCP fleets to a majority of K).

    ``data_dir=...`` makes every shard durable through
    :func:`~repro.storage.wal.attach_persistence`: each gets its own
    :class:`~repro.storage.wal.ShardPersistence` under
    ``data_dir/<shard-name>/`` (and, with ``anchor_dir``, its own
    freshness anchor — a rolled-back shard image raises
    :class:`~repro.storage.anchor.StaleImageError` out of the
    constructor), recovered *before* replication wires up so sources
    stream the recovered state.  Each persistence carries its recovery
    report as ``last_report``; ``close()`` flushes and detaches.
    """

    def __init__(
        self,
        ras,
        shards: int = 4,
        policy: Optional[RenewalPolicy] = None,
        server_secret: bytes = VENDOR_SECRET,
        shard_names: Optional[Sequence[str]] = None,
        ring_replicas: int = 64,
        replicas: int = 0,
        lag_budget_units: int = DEFAULT_LAG_BUDGET_UNITS,
        lag_budget_grants: int = DEFAULT_LAG_BUDGET_GRANTS,
        flush_interval: float = 0.02,
        snapshot_interval: float = 0.5,
        data_dir: Optional[str] = None,
        anchor_dir: Optional[str] = None,
        fsync: str = "interval",
        compact_every: int = 4096,
        quorum: Optional[int] = None,
        admission: bool = True,
        autotune_lag: bool = False,
    ) -> None:
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if quorum is not None and quorum < 0:
            raise ValueError("quorum must be >= 0")
        names = (list(shard_names) if shard_names is not None
                 else default_shard_names(shards))
        self.shards: Dict[str, SlRemote] = {
            name: SlRemote(ras, policy=policy, server_secret=server_secret,
                           admission=admission, autotune_lag=autotune_lag)
            for name in names
        }
        # Durability wires up BEFORE replication: recovery replays the
        # on-disk ledger into each shard first, so replication sources
        # start from (and journal observers see) the recovered state.
        self.persistences: Dict[str, ShardPersistence] = {}
        if data_dir is not None:
            self.persistences = {
                persistence.name: persistence
                for persistence in attach_persistence(
                    self, data_dir, fsync=fsync, compact_every=compact_every,
                    anchor_dir=anchor_dir)
            }
        ring = HashRing(names, replicas=ring_replicas)
        self.replicas = replicas
        self.replication_depth = 0
        self.quorum = 0
        self.managers: Dict[str, ReplicationManager] = {}
        handler_maps = {
            name: dict(remote.protocol_handlers())
            for name, remote in self.shards.items()
        }
        if replicas > 0 and len(names) > 1:
            # Depth-K replication: each license streams to its K
            # distinct ring successors, so failover routing and replica
            # location agree without any lookup table no matter how
            # many primaries die.
            depth = min(replicas, len(names) - 1)
            self.replication_depth = depth
            self.quorum = quorum if quorum is not None else 0
            links = {name: LocalPeerLink(None) for name in names}

            def followers_for(license_id: str) -> List[str]:
                return ring.owners(license_id, depth + 1)[1:]

            def owners_for(license_id: str) -> List[str]:
                return ring.owners(license_id, len(ring))

            for name, remote in self.shards.items():
                self.managers[name] = ReplicationManager(
                    remote, name,
                    peers={peer: links[peer] for peer in names
                           if peer != name},
                    followers_for=followers_for,
                    owners_for=owners_for,
                    quorum=self.quorum,
                    lag_budget_units=lag_budget_units,
                    lag_budget_grants=lag_budget_grants,
                    flush_interval=flush_interval,
                    snapshot_interval=snapshot_interval,
                    persistence=self.persistences.get(name),
                )
            for name, link in links.items():
                link.manager = self.managers[name]
            for name, manager in self.managers.items():
                handler_maps[name].update(manager.extra_handlers())
        self._tables = {
            name: HandlerTable(handlers)
            for name, handlers in handler_maps.items()
        }
        self.router = ShardRouter(
            {name: table.dispatch for name, table in self._tables.items()},
            ring=ring,
            failover=replicas > 0,
        )
        self.policy = next(iter(self.shards.values())).policy

    # ------------------------------------------------------------------
    # Wire protocol surface (drop-in for SlRemote)
    # ------------------------------------------------------------------
    def protocol_handlers(self) -> Dict[str, Callable]:
        def routed(method: str) -> Callable:
            def handler(request, clock: Optional[Clock] = None,
                        stats: Optional[SgxStats] = None):
                return self.router.request(method, request, clock=clock,
                                           stats=stats)
            handler.__name__ = f"route_{method}"
            return handler

        return {method: routed(method)
                for method in ("init", "renew", "renew_batch", "shutdown",
                               "return_units", "admit", "crash",
                               "ledger_probe")}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self.router.ring

    def shard_for(self, license_id: str) -> str:
        return self.router._owner_of(license_id)

    def shard_of(self, license_id: str) -> SlRemote:
        return self.shards[self.shard_for(license_id)]

    @property
    def home_shard(self) -> SlRemote:
        return self.shards[self.router.home]

    # ------------------------------------------------------------------
    # Replication lifecycle (no-ops when replicas=0)
    # ------------------------------------------------------------------
    def start_replication(self) -> None:
        for manager in self.managers.values():
            manager.start()

    def close(self) -> None:
        """Tear down in dependency order, idempotently: replication
        shipper threads first (they call into peers and journal via the
        WAL), every shard's write-ahead log second, so callers can close
        sockets after this returns knowing no background thread will
        touch them."""
        for manager in self.managers.values():
            manager.stop()
        for persistence in self.persistences.values():
            persistence.close()
        self.persistences.clear()

    def replicate_now(self) -> None:
        """Flush every shard's pending deltas (deterministic tests)."""
        for manager in self.managers.values():
            if manager.source is not None:
                manager.source.flush_now()

    def snapshot_now(self) -> None:
        """Run one reconciliation pass on every shard: an empty batch to
        each warm peer, a rebuild for each peer with evidence against it."""
        for manager in self.managers.values():
            if manager.source is not None:
                manager.source.snapshot_now()

    def kill_shard(self, name: str) -> None:
        """Simulate a shard death: its backend dials out, its peers see
        connection refusals, its replication stops mid-stream."""
        if name not in self.shards:
            raise ValueError(f"unknown shard {name!r}")
        manager = self.managers.get(name)
        if manager is not None:
            manager.stop()
        persistence = self.persistences.pop(name, None)
        if persistence is not None:
            persistence.close()

        def down(method, payload, clock=None, stats=None):
            raise DialError(f"shard {name!r} is down", host=name, attempts=1)

        self.router.backends[name] = down
        for other, peer_manager in self.managers.items():
            if other == name or peer_manager.source is None:
                continue
            if name in peer_manager.source.peers:
                peer_manager.source.peers[name] = _DownPeer(name)

    # ------------------------------------------------------------------
    # Developer-facing provisioning (routed to the owning shard)
    # ------------------------------------------------------------------
    def issue_license(self, license_id: str, total_units: int,
                      **kwargs) -> LicenseDefinition:
        return self.shard_of(license_id).issue_license(
            license_id, total_units, **kwargs
        )

    def revoke_license(self, license_id: str) -> None:
        self.shard_of(license_id).revoke_license(license_id)

    def ledger(self, license_id: str):
        return self.shard_of(license_id).ledger(license_id)

    def license_definition(self, license_id: str) -> LicenseDefinition:
        return self.shard_of(license_id).license_definition(license_id)

    def report_crash(self, slid: int) -> None:
        """Out-of-band crash: every shard writes off what it tracks."""
        for remote in self.shards.values():
            remote.report_crash(slid)

    def ledger_probe(self, license_id: Optional[str] = None):
        return self.router.request("ledger_probe", license_id)

    # ------------------------------------------------------------------
    # Aggregated counters
    # ------------------------------------------------------------------
    @property
    def renewals_served(self) -> int:
        return sum(remote.renewals_served for remote in self.shards.values())

    @property
    def inits_served(self) -> int:
        return sum(remote.inits_served for remote in self.shards.values())

    @property
    def exhausted_served(self) -> int:
        """EXHAUSTED renewals answered fleet-wide (backpressure signal
        for the adaptive-renewal control loop)."""
        return sum(remote.exhausted_served
                   for remote in self.shards.values())

    @property
    def degraded_served(self) -> int:
        """Grants the admission ladder degraded, fleet-wide."""
        return sum(remote.degraded_served
                   for remote in self.shards.values())

    def renewal_health(self) -> Dict[str, Any]:
        """Per-shard renewal health (same shape as replication health:
        one :meth:`SlRemote.renewal_health` report per shard)."""
        return {name: remote.renewal_health()
                for name, remote in self.shards.items()}

    def replication_health(self) -> Dict[str, Any]:
        """Per-shard replication health (ack lag, epoch, quorum) for
        ``_server_stats``."""
        return {name: manager.health()
                for name, manager in self.managers.items()}


class ShardRouterTransport(Transport):
    """Client-side router over one transport per shard.

    The thin layer that lets one SL-Local fleet span N ``serve-remote``
    processes: requests route exactly like :class:`ShardRouter` (it *is*
    a ShardRouter over ``Transport.request`` backends), and every
    underlying transport keeps its own connection, retry budget, and
    virtual-RTT accounting — a mirror broadcast to N-1 shards charges
    N-1 honest round trips to the caller's clock.

    ``dial(host, port) -> Transport`` (supplied by
    :func:`repro.net.connect`) lets the router open sockets it learns
    about at runtime — migration tombstones naming a shard this client
    never configured, and the ``add_shard`` admin verb.
    """

    name = "shard-router"

    def __init__(self, transports: Mapping[str, Transport],
                 ring: Optional[HashRing] = None,
                 home: Optional[str] = None,
                 config: Optional[EndpointConfig] = None,
                 dial: Optional[Callable[[str, int], Transport]] = None,
                 failover: bool = False) -> None:
        self.transports: Dict[str, Transport] = dict(transports)
        self.dial = dial
        addresses = {
            name: f"{transport.host}:{transport.port}"
            for name, transport in self.transports.items()
            if hasattr(transport, "host")
        }
        self.router = ShardRouter(
            {name: transport.request
             for name, transport in self.transports.items()},
            ring=ring, home=home, config=config, failover=failover,
            connect_backend=self._connect_backend if dial is not None
            else None,
            addresses=addresses,
            on_shard_down=self._drop_transport,
        )

    def _connect_backend(self, name: str, host: str, port: int) -> DispatchFn:
        transport = self.dial(host, port)
        self.transports[name] = transport
        return transport.request

    def _drop_transport(self, name: str) -> None:
        transport = self.transports.pop(name, None)
        if transport is not None:
            transport.close()

    # -- membership admin ----------------------------------------------
    def add_shard(self, name: str, host: str, port: int) -> List[str]:
        """Dial a new shard and migrate its keyspace to it, online."""
        if self.dial is None:
            raise ValueError(
                "this router has no dial function; connect with "
                "repro.net.connect() to manage membership"
            )
        transport = self.dial(host, port)
        self.transports[name] = transport
        return self.router.add_shard(name, transport.request,
                                     address=f"{host}:{port}")

    def remove_shard(self, name: str) -> List[str]:
        """Drain a shard and retire it (its transport is closed)."""
        return self.router.remove_shard(name)

    def request(self, method: str, payload: Any,
                clock: Optional[Clock] = None,
                stats: Optional[SgxStats] = None):
        return self.router.request(method, payload, clock=clock, stats=stats)

    def close(self) -> None:
        for transport in self.transports.values():
            transport.close()
