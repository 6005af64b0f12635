"""Quorum control plane: depth-K delta streams, epoch fencing, bootstrap.

The sharded SL-Remote loses a license's whole ledger when its home
shard dies — the availability gap the paper waves at and T-Lease
closes with replicated, epoch-disciplined lease state.  This module
makes every shard stream its
:class:`~repro.core.sl_remote.LicenseShardState` changes to **K ring
successors** so that even two simultaneous shard deaths cost clients a
bounded, *accounted* loss instead of a dead license:

* :class:`ReplicationSource` — taps the primary's observer hooks
  (:meth:`~repro.core.sl_remote.SlRemote.add_observer`), buffers
  per-license deltas in commit order, and a flusher thread ships them
  as :class:`ReplicaBatch` messages to each license's followers
  (``followers_for(license_id)`` — the next K *distinct* shards
  clockwise on the hash ring, exactly the shards the ring maps the
  license to as primaries die, so routing after failover needs no
  extra lookup table).
* **Bounded replication lag** — the source tracks, per peer and per
  license, how many granted units that follower has *not*
  acknowledged, and SL-Remote's ``grant_headroom`` hook clamps new
  grants so no live follower's lag ever exceeds the license's shipped
  budget.  That clamp is the whole no-double-mint argument: whatever
  *any* surviving follower missed is at most the budget, so reserving
  that many units as lost at promotion covers every unseen grant (the
  paper's pessimistic rule, Algorithms 2–3, applied only to the lag
  window instead of to everything).  The budget is adaptive and
  denominated in grants (``lag_budget_grants × peak grant``, capped at
  a pool fraction); the clamp only ever trusts the **shipped** budget
  — the last value that follower acknowledged receiving.
* **Identity quorum** — identity/escrow deltas (no ``license_id``)
  broadcast to every peer, and the dispatch path can block a client's
  ``init``/``shutdown`` ack until a majority of live peers has acked
  the identity watermark (:meth:`ReplicationSource.
  wait_identity_quorum`), so a home-shard death immediately after an
  escrow cannot silently forfeit it.
* **Epoch fencing** — every promotion carries an epoch; followers
  fence the deposed source at that epoch and answer its late traffic
  with ``{"status": "fenced"}`` instead of applying it.  A fenced
  source stops granting entirely (headroom 0): a partitioned stale
  primary can neither mint units nor corrupt its successors.
* **WAL-shipped bootstrap** — a cold or restarting follower no longer
  syncs from an in-memory :class:`ShardSnapshot` build: when the
  source has durable storage (:class:`~repro.storage.wal.
  ShardPersistence`), it ships a :class:`BootstrapChunk` — the
  on-disk snapshot plus the WAL tail in v3 frames — and the follower
  replays it through :class:`FollowerStore`, then switches to live
  deltas at the captured seq watermark.
* **Reconcile on evidence** — the periodic pass (``snapshot_now``)
  sends a follower the full :class:`ShardSnapshot` /
  :class:`BootstrapChunk` only when something says its replica is not
  what the delta stream built (cold or broken stream, a delta it could
  not apply, a watermark that is not the one acked here, a changed
  follow set); a warm follower costs one empty :class:`ReplicaBatch`,
  which is also how an idle deposed primary hears its fence.
* :class:`FollowerStore` — the follower-side replica: wire-form
  license records per source shard, mutated by deltas, replaced by
  snapshots, rebuilt by bootstrap chunks; fences stale sources.
* :class:`ReplicationManager` — one per shard process; wires source +
  store together and exposes the fleet-internal wire surface
  (``replicate`` / ``sync_snapshot`` / ``bootstrap`` / ``promote`` /
  ``replication_probe`` and, when a quorum is configured, gated
  ``init``/``shutdown``) that the servers mount via
  ``extra_handlers``.

Promotion is **idempotent, epoch-fenced and router-driven**: every
client's :class:`~repro.net.sharding.ShardRouter` that observes a dead
shard probes the survivors, picks the max-(epoch, seq) ranking, and
broadcasts ``promote({source, epoch})``; each survivor fences the dead
source, folds the replicas *it* adopts (first live owner in ring
order) into its own serving state exactly once, and answers with what
it installed, no matter how many routers ask.  Every promote call
rescans all dead sources, so a second simultaneous death is healed by
whichever survivor is next in ring order for each license.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.net import codec
from repro.sim.clock import ThreadSafeClock

#: Default per-license replication-lag budget *floor*: the most granted
#: units that may ever be un-acknowledged by a follower before the
#: budget has adapted to the observed grant size, hence the least a
#: promotion may have to forfeit per license.
DEFAULT_LAG_BUDGET_UNITS = 64

#: How many peak-sized grants may be in flight un-acked before the
#: clamp bites (the grant-denominated budget).
DEFAULT_LAG_BUDGET_GRANTS = 4

#: Hard cap on the adaptive budget as a fraction of the license pool:
#: a promotion's pessimistic reserve can never burn more than this.
DEFAULT_LAG_BUDGET_POOL_FRACTION = 0.25

#: How long a gated ``init``/``shutdown`` waits for the identity
#: quorum before giving up (the ack still goes out — the timeout is a
#: tail-latency bound, counted in ``quorum_timeouts``, not a refusal).
DEFAULT_QUORUM_TIMEOUT = 1.0


# ----------------------------------------------------------------------
# Wire messages (registered with the codec)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaDelta:
    """One state change, in the emitting shard's commit order."""

    seq: int
    event: str  # grant | return | writeoff | issue | revoke | escrow | escrow_clear
    fields: Dict[str, Any]


@dataclass(frozen=True)
class ReplicaBatch:
    """A run of deltas from ``source``, for one follower.

    ``budgets`` carries the source's *current* adaptive lag budget per
    license touched by the batch; the follower records the largest
    value it has seen — that (not the legacy flat ``budget``) is what
    its promotion reserve uses, and the source never clamps against a
    budget it has not successfully shipped.  ``epoch`` is the source's
    promotion epoch: a follower that fenced the source at a higher
    epoch rejects the batch instead of applying it.
    """

    source: str
    budget: int
    deltas: Tuple[ReplicaDelta, ...]
    budgets: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0


@dataclass(frozen=True)
class ShardSnapshot:
    """Full state of ``source``'s licenses for one follower (a rebuild).

    ``licenses`` maps license_id to the wire form produced by
    :meth:`~repro.core.sl_remote.SlRemote.export_license_state`;
    ``identity`` is :meth:`~repro.core.sl_remote.SlRemote.
    export_identity`'s payload.  Applying a snapshot *replaces* the
    follower's replica for those licenses — it supersedes any deltas in
    flight, which is what lets a source drop undeliverable deltas and
    heal with the next snapshot instead of buffering without bound.
    """

    source: str
    seq: int
    budget: int
    licenses: Dict[str, Any]
    identity: Dict[str, Any]
    budgets: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0


@dataclass(frozen=True)
class BootstrapChunk:
    """The source's durable state, shipped to a cold follower.

    ``snapshot`` is the on-disk compaction snapshot payload
    (``{"seq": wal_seq, "licenses": {...}, "identity": {...}}``, or
    ``{}`` when the source has never compacted); ``records`` is the
    WAL tail — v3-framed ``{"seq", "event", "fields"}`` values
    produced by :meth:`~repro.storage.wal.WriteAheadLog.export_frames`
    — which the follower replays past the snapshot's WAL watermark.
    ``seq`` is the *replication* seq captured while the WAL was
    quiesced: the follower resumes live deltas exactly there.
    """

    source: str
    seq: int
    budget: int
    snapshot: Dict[str, Any]
    records: bytes
    budgets: Dict[str, int] = field(default_factory=dict)
    epoch: int = 0


for _message in (ReplicaDelta, ReplicaBatch, ShardSnapshot, BootstrapChunk):
    codec.register_message_type(_message)


def _wire_available(ledger: Dict[str, Any]) -> int:
    """``available`` computed from a wire-form ledger."""
    return (ledger["total_gcl"] - sum(ledger["outstanding"].values())
            - ledger["lost_units"])


def _slid_of(node_key: str) -> str:
    """``"slid:7"`` -> ``"7"`` (holdings are keyed by SLID strings)."""
    return node_key.split(":", 1)[1]


# ----------------------------------------------------------------------
# Peer links: how a source reaches its followers
# ----------------------------------------------------------------------
class PeerLink:
    """One replication hop to a peer shard (transport-agnostic)."""

    #: True when ``call`` runs in this process and so cannot block on a
    #: network: a quorum waiter may then ship on its own thread without
    #: putting ``DEFAULT_QUORUM_TIMEOUT`` at a hung peer's mercy.
    in_process = False

    def call(self, method: str, payload: Any) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LocalPeerLink(PeerLink):
    """Direct call into another in-process shard's manager.

    The peer surface is resolved when ``manager`` is set (fleets build
    their links first and wire the managers in afterwards), never per
    call.
    """

    in_process = True

    def __init__(self, manager: Optional["ReplicationManager"]) -> None:
        self.manager = manager

    @property
    def manager(self) -> Optional["ReplicationManager"]:
        return self._manager

    @manager.setter
    def manager(self, manager: Optional["ReplicationManager"]) -> None:
        self._manager = manager
        self._handlers = (manager.peer_handlers()
                          if manager is not None else {})

    def call(self, method: str, payload: Any) -> Any:
        return self._handlers[method](payload)


class TcpPeerLink(PeerLink):
    """Replication over the standard lease wire (fleet-internal).

    Uses small budgets: replication is retried forever by the flusher
    anyway, so a slow peer should fail fast and let the next
    reconciliation pass heal the gap, not stall the stream.
    """

    def __init__(self, host: str, port: int) -> None:
        from repro.net.endpoint import EndpointConfig
        from repro.net.transport import TcpTransport

        self.transport = TcpTransport(host, port, config=EndpointConfig(
            timeout_seconds=2.0,
            max_attempts=2,
            backoff_seconds=0.01,
            reconnect_attempts=2,
            reconnect_backoff_seconds=0.01,
        ))
        self._clock = ThreadSafeClock()

    def call(self, method: str, payload: Any) -> Any:
        return self.transport.request(method, payload, clock=self._clock)

    def close(self) -> None:
        self.transport.close()


# ----------------------------------------------------------------------
# Source side
# ----------------------------------------------------------------------
class ReplicationSource:
    """Streams one shard's state changes to its K followers.

    ``followers_for(license_id)`` names the peers that replicate a
    given license (the K distinct ring successors); identity events go
    to every peer.  The flusher thread drains the delta buffer every
    ``flush_interval`` seconds and takes a reconciliation pass every
    ``snapshot_interval`` seconds; both can also be driven explicitly
    (``flush_now`` / ``snapshot_now``) which is what deterministic
    tests do, and what an identity-quorum waiter does itself when no
    peer link can block on a network.

    The pass rebuilds a peer's replica (``_needs_snapshot`` names the
    peer and why) only on evidence that it differs from what the delta
    stream built:

    * ``cold`` — never synced, or a call to it raised;
    * ``skipped`` — its ``replicate`` reply counted a delta it could
      not apply;
    * ``watermark`` — that reply's ``prior_seq`` (the ``last_seq`` the
      follower held before applying) is not ``_acked_seq[peer]``: the
      two are equal after every successful exchange, so a difference
      means the follower restarted or applied something twice;
    * ``follow_set`` — ``followers_for`` added it to, or took it off,
      a license's route since that route was last looked at.

    Every other live peer gets one empty :class:`ReplicaBatch` per
    pass, which is what surfaces ``watermark`` evidence and a fence on
    an idle stream.  Between the evidence and the pass, deltas for the
    peer are dropped exactly as for a broken stream.

    When ``exporter`` is set (a :meth:`~repro.storage.wal.
    ShardPersistence.export_bootstrap` bound method), ``cold`` peers —
    including every peer at startup — are healed with a WAL-shipped
    :class:`BootstrapChunk` instead of an in-memory snapshot build.
    """

    def __init__(
        self,
        remote,
        name: str,
        peers: Dict[str, PeerLink],
        followers_for: Callable[[str], Sequence[str]],
        lag_budget_units: int = DEFAULT_LAG_BUDGET_UNITS,
        lag_budget_grants: int = DEFAULT_LAG_BUDGET_GRANTS,
        lag_budget_pool_fraction: float = DEFAULT_LAG_BUDGET_POOL_FRACTION,
        flush_interval: float = 0.02,
        snapshot_interval: float = 0.5,
    ) -> None:
        if lag_budget_units < 1:
            raise ValueError("lag_budget_units must be >= 1")
        if lag_budget_grants < 1:
            raise ValueError("lag_budget_grants must be >= 1")
        if not 0.0 < lag_budget_pool_fraction <= 1.0:
            raise ValueError("lag_budget_pool_fraction must be in (0, 1]")
        self.remote = remote
        self.name = name
        self.peers = dict(peers)
        self.followers_for = followers_for
        self.budget = lag_budget_units
        self.grants_budget = lag_budget_grants
        self.pool_fraction = lag_budget_pool_fraction
        self.flush_interval = flush_interval
        self.snapshot_interval = snapshot_interval
        #: Promotion epoch stamped on every outbound message; bumped by
        #: the manager when this shard participates in a promotion.
        self.epoch = 0
        #: Optional durable exporter (``ShardPersistence.
        #: export_bootstrap``): enables WAL-shipped bootstrap.
        self.exporter: Optional[
            Callable[[Callable[[], None]], Tuple[Dict[str, Any], bytes]]
        ] = None
        self._lock = threading.Lock()
        self._ack_cond = threading.Condition(self._lock)
        #: Serializes flush_now/snapshot_now across the flusher thread
        #: and any request thread driving shipping inline (identity
        #: quorum waits): interleaved drains would ship deltas out of
        #: seq order and the follower would skip the stragglers.
        self._flush_serial = threading.Lock()
        self._pending: Deque[ReplicaDelta] = deque()
        self._seq = 0
        #: Seq of the most recent identity delta (no license_id): the
        #: watermark wait_identity_quorum compares peer acks against.
        self._identity_seq = 0
        #: peer -> license_id -> granted units that follower has not
        #: acked; the grant_headroom clamp keeps every entry <= the
        #: budget shipped *to that peer*.
        self._unacked: Dict[str, Dict[str, int]] = {}
        #: license_id -> largest grant Algorithm 1 ever *proposed*
        #: (pre-clamp) — the scale the adaptive budget tracks.
        self._peak: Dict[str, int] = {}
        #: peer -> license_id -> largest budget that follower has
        #: confirmed receiving.  The clamp uses only this: a grant
        #: sized against an unshipped budget could exceed the
        #: promotion reserve.
        self._shipped: Dict[str, Dict[str, int]] = {}
        #: peer -> highest seq that follower has acknowledged (batch,
        #: snapshot or bootstrap — whichever covered it).
        self._acked_seq: Dict[str, int] = {}
        #: peer -> epoch at which that peer fenced *us* (we were
        #: promoted away from).  A fenced source stops granting.
        self._fenced: Dict[str, int] = {}
        #: peer -> why its replica must be rebuilt (the first evidence
        #: seen; see the class docstring).  Deltas for these peers are
        #: dropped and the next pass reconciles them.  Guarded by
        #: ``_lock``: request threads ship too.
        self._needs_snapshot: Dict[str, str] = dict.fromkeys(
            self.peers, "cold")
        #: reason -> snapshots/bootstraps that landed because of it.
        self.reconciled: Dict[str, int] = dict.fromkeys(
            ("cold", "skipped", "watermark", "follow_set"), 0)
        #: license_id -> ``followers_for`` as last looked at (by a
        #: grant, a flush or a pass).
        self._routes: Dict[str, Tuple[str, ...]] = {}
        self.batches_sent = 0
        self.snapshots_sent = 0
        self.bootstraps_sent = 0
        self.deltas_dropped = 0
        self.deltas_coalesced = 0
        self.fenced_rejections = 0
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        remote.add_observer(self._observe)
        remote.grant_headroom = self.grant_headroom
        # The auto-tuner's actuator: lets the served remote scale this
        # source's per-license lag budget (grants) online.
        if hasattr(remote, "lag_budget_control"):
            remote.lag_budget_control = self.scale_grants_budget

    # -- primary-side hooks (called under the mutated state's lock) ----
    def _live_followers(self, license_id: str) -> List[str]:
        """Followers that can still ack (``_lock`` held).

        A peer that joined or left the route since it was last looked
        at holds a replica the stream did not build — it missed this
        license's deltas, or keeps a copy nobody updates — so it is
        marked for the next pass.
        """
        followers = tuple(self.followers_for(license_id))
        known = self._routes.get(license_id, followers)
        self._routes[license_id] = followers
        live = [peer for peer in followers
                if peer in self.peers and peer not in self._fenced]
        if known != followers:
            for peer in set(known).symmetric_difference(followers):
                self._mark(peer, "follow_set")
        return live

    def _mark(self, peer_name: str, reason: str) -> None:
        """Queue a live peer for reconciliation (``_lock`` held)."""
        if peer_name in self.peers and peer_name not in self._fenced:
            self._needs_snapshot.setdefault(peer_name, reason)

    def _observe(self, event: str, fields: Dict[str, Any]) -> None:
        with self._lock:
            self._seq += 1
            self._pending.append(ReplicaDelta(self._seq, event, dict(fields)))
            license_id = fields.get("license_id")
            if license_id is None:
                self._identity_seq = self._seq
            elif event == "grant":
                # Only grants a live follower should see count toward
                # the lag window: a license none of whose ring
                # successors is a peer (e.g. they all died) has no
                # replica anywhere, so there is nothing to lag.
                for peer in self._live_followers(license_id):
                    bucket = self._unacked.setdefault(peer, {})
                    lag = bucket.get(license_id, 0) + fields["units"]
                    bucket[license_id] = lag
                    if lag >= self._shipped.get(peer, {}).get(
                            license_id, self.budget):
                        # Budget spent: the next renewal of this license
                        # is refused until this follower acks, so ship
                        # now instead of at the next tick.
                        self._wake.set()

    def grant_headroom(self, license_id: str,
                       proposed_units: int = 0) -> Optional[int]:
        """How many more units may be granted before exceeding the lag
        budget (wired into ``SlRemote.grant_headroom``); ``None`` means
        unlimited — the license has no live follower to lag behind —
        and ``0`` with a fenced follower means *deposed*: a stale
        primary that learned of its own replacement never grants again.

        ``proposed_units`` (Algorithm 1's pre-clamp decision) feeds the
        peak tracker so the *next* shipped budget adapts to the grant
        scale; the clamp itself only trusts ``_shipped``, and takes the
        minimum headroom across the K live followers — the promotion
        reserve must cover whichever survivor knows the least.
        """
        with self._lock:
            followers = list(self.followers_for(license_id))
            if any(peer in self._fenced for peer in followers):
                return 0
            live = [peer for peer in followers if peer in self.peers]
            if not live:
                return None
            if proposed_units > self._peak.get(license_id, 0):
                self._peak[license_id] = proposed_units
            headroom: Optional[int] = None
            for peer in live:
                shipped = self._shipped.get(peer, {}).get(
                    license_id, self.budget)
                lag = self._unacked.get(peer, {}).get(license_id, 0)
                room = max(0, shipped - lag)
                headroom = room if headroom is None else min(headroom, room)
            return headroom

    def scale_grants_budget(self, factor: float) -> int:
        """Multiply the per-license lag budget (in grants) by ``factor``.

        The auto-tuner's actuator (``SlRemote.lag_budget_control``):
        widening lets more un-replicated grants ride between acks
        (fewer backpressure refusals, larger promotion forfeit bound);
        narrowing tightens the forfeit bound.  Clamped to [1, 64]; the
        ``pool_fraction`` cap in :meth:`desired_budget` still applies,
        so no tuner move can put more than that fraction of a license
        at risk.  Returns the applied value.
        """
        grants = int(round(self.grants_budget * factor))
        self.grants_budget = max(1, min(grants, 64))
        return self.grants_budget

    def desired_budget(self, license_id: str) -> int:
        """The adaptive lag budget this license *should* have:
        ``max(floor, grants × peak)``, capped at ``pool_fraction`` of
        the license pool.  Shipped to followers on every batch and
        snapshot; the clamp starts honouring it once shipping succeeds.

        (The ledger lookup happens outside ``_lock``: observers run
        under the registry lock and take ``_lock``, so taking them in
        the opposite order here would be a lock-order inversion.)
        """
        with self._lock:
            peak = self._peak.get(license_id, 0)
        want = max(self.budget, self.grants_budget * peak)
        try:
            total = self.remote.ledger(license_id).total_gcl
        except Exception:  # noqa: BLE001 - unknown/migrated-away license
            return want
        return min(want, max(self.budget, int(total * self.pool_fraction)))

    def shipped_budget(self, license_id: str) -> int:
        """The smallest budget any live follower has confirmed (= the
        forfeit bound whichever of them is promoted)."""
        with self._lock:
            live = [peer for peer in self.followers_for(license_id)
                    if peer in self.peers]
            if not live:
                return self.budget
            return min(self._shipped.get(peer, {}).get(license_id,
                                                       self.budget)
                       for peer in live)

    def _ship_budgets(self, peer_name: str,
                      budgets: Dict[str, int]) -> None:
        """Record budgets a peer just acknowledged (monotone)."""
        with self._lock:
            bucket = self._shipped.setdefault(peer_name, {})
            for license_id, units in budgets.items():
                if units > bucket.get(license_id, self.budget):
                    bucket[license_id] = units

    def drop_peer(self, name: str) -> None:
        """Forget a dead peer (promotion observed its death).

        Its link closes and its lag stops counting toward the clamp —
        nothing it missed can be promoted any more, so backpressuring
        grants for it would wedge licenses at the budget with no
        follower left to ever ack.
        """
        with self._lock:
            peer = self.peers.pop(name, None)
            self._needs_snapshot.pop(name, None)
            self._unacked.pop(name, None)
            self._shipped.pop(name, None)
            self._acked_seq.pop(name, None)
            self._fenced.pop(name, None)
            self._ack_cond.notify_all()
        if peer is not None:
            try:
                peer.close()
            except Exception:  # noqa: BLE001 - closing a dead link
                pass

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"replication-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the flusher, detach from the remote, close the links.

        Detaching the observer/headroom hooks makes stop() safe to
        call before the server sockets close: no request thread can
        re-enter a half-torn-down source.
        """
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.remote._observers.remove(self._observe)
        except ValueError:
            pass
        if self.remote.grant_headroom == self.grant_headroom:
            self.remote.grant_headroom = None
        if getattr(self.remote, "lag_budget_control",
                   None) == self.scale_grants_budget:
            self.remote.lag_budget_control = None
        for peer in self.peers.values():
            peer.close()

    def _run(self) -> None:
        elapsed = 0.0
        # Bootstrap: fresh followers start from a full snapshot (or a
        # WAL-shipped bootstrap when durable storage is attached).
        self.snapshot_now()
        while True:
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            if self._stop.is_set():
                break
            self.flush_now()
            elapsed += self.flush_interval
            if elapsed >= self.snapshot_interval:
                elapsed = 0.0
                self.snapshot_now()

    # -- identity quorum ------------------------------------------------
    def wait_identity_quorum(self, required: int,
                             timeout: float = DEFAULT_QUORUM_TIMEOUT) -> bool:
        """Block until ``required`` live peers have acked the identity
        watermark as it stood on entry (or every live peer, when fewer
        than ``required`` remain).  Returns False on timeout.

        Called on the dispatch path after an identity-mutating handler
        (init/shutdown) ran — so the caller holds no license, registry
        or clients lock, and its own delta (appended by ``_observe`` on
        this thread) is at or below the watermark read here.  Later
        identity writes by other connections are their waiters'
        business, not this one's.

        The waiter ships on its own thread whenever shipping cannot
        block on a network (no flusher, or every live peer's link is
        in-process): ``_flush_serial`` makes whoever holds it take
        every pending delta in seq order, so a second waiter finds its
        delta already shipped.  With a network link in play it wakes
        the flusher instead — ``timeout`` is a tail bound a hung peer
        must not stretch.
        """
        if required <= 0:
            return True
        deadline = time.monotonic() + timeout
        with self._lock:
            target = self._identity_seq
        if target == 0:
            return True
        while True:
            with self._lock:
                if self._quorum_acked(required, target):
                    return True
                inline = self._thread is None or all(
                    link.in_process for peer, link in self.peers.items()
                    if peer not in self._fenced)
            if time.monotonic() >= deadline:
                return False
            if inline:
                self.flush_now()
                with self._lock:
                    if self._quorum_acked(required, target):
                        return True
                # flush alone cannot reach a peer that needs
                # reconciling (deltas for it are dropped): escalate.
                self.snapshot_now()
            else:
                self._wake.set()
            with self._ack_cond:
                if not self._quorum_acked(required, target):
                    self._ack_cond.wait(timeout=0.01)

    def _quorum_acked(self, required: int, target: int) -> bool:
        """``_lock`` held."""
        live = [peer for peer in self.peers if peer not in self._fenced]
        acked = sum(1 for peer in live
                    if self._acked_seq.get(peer, 0) >= target)
        return acked >= min(required, len(live))

    # -- shipping -------------------------------------------------------
    def _route(self, delta: ReplicaDelta) -> List[str]:
        """Peer names a delta must reach (``_lock`` held; identity
        events go to every non-fenced peer)."""
        license_id = delta.fields.get("license_id")
        if license_id is None:
            return [peer for peer in self.peers
                    if peer not in self._fenced]
        return self._live_followers(license_id)

    @staticmethod
    def _coalesce(deltas: List[ReplicaDelta]) -> List[ReplicaDelta]:
        """Collapse adjacent same-cursor unit deltas before shipping.

        A coalesced renewal batch journals runs of grants for the same
        ``(license_id, node_key)`` back to back; the follower applies
        unit deltas additively and advances by the batch's last seq, so
        an adjacent run ships as **one** delta carrying the summed
        units under the run's final seq.  Only ``grant``/``return``
        runs with identical routing keys merge — same-cursor order is
        what the follower's clamp depends on, and any other event
        (issue, revoke, writeoff, escrow, ...) is a barrier.
        """
        merged: List[ReplicaDelta] = []
        for delta in deltas:
            if merged and delta.event in ("grant", "return"):
                prev = merged[-1]
                if (prev.event == delta.event
                        and prev.fields.get("license_id")
                        == delta.fields.get("license_id")
                        and prev.fields.get("node_key")
                        == delta.fields.get("node_key")):
                    fields = dict(prev.fields)
                    fields["units"] = (fields.get("units", 0)
                                       + delta.fields.get("units", 0))
                    merged[-1] = ReplicaDelta(delta.seq, delta.event, fields)
                    continue
            merged.append(delta)
        return merged

    def _refused(self, peer_name: str, method: str, reply: Any) -> bool:
        """True when ``reply`` says the peer did not take the message
        as sent: a ``{"status": "fenced"}`` answer is recorded, and a
        ``replicate`` reply carrying evidence (see the class docstring)
        marks the peer for the next pass.  A reply without the evidence
        keys — an older peer, a test double — is no evidence."""
        if not isinstance(reply, dict):
            return False
        with self._lock:
            if reply.get("status") == "fenced":
                epoch = int(reply.get("epoch", 0))
                if epoch > self._fenced.get(peer_name, -1):
                    self._fenced[peer_name] = epoch
                self._needs_snapshot.pop(peer_name, None)
                self._ack_cond.notify_all()
                self.fenced_rejections += 1
                return True
            if method != "replicate":
                return False  # a rebuild has nothing to be evidence of
            prior = reply.get("prior_seq")
            if (prior is not None
                    and prior != self._acked_seq.get(peer_name, 0)):
                self._mark(peer_name, "watermark")
                return True
            if reply.get("skipped"):
                self._mark(peer_name, "skipped")
                return True
        return False

    def _call(self, peer_name: str, method: str, message: Any) -> bool:
        """Send one message; True when the peer took it as sent.  A
        dropped link, a raising call (retried on the next pass) and a
        refusal all answer False."""
        link = self.peers.get(peer_name)
        if link is None:
            return False  # dropped concurrently by a promotion
        try:
            reply = link.call(method, message)
        except Exception:  # noqa: BLE001 - peer fault = resync later
            with self._lock:
                self._mark(peer_name, "cold")
            return False
        return not self._refused(peer_name, method, reply)

    def _ship_batch(self, peer_name: str, deltas: List[ReplicaDelta],
                    epoch: int) -> None:
        """One :class:`ReplicaBatch` to one warm peer; ``deltas`` is
        empty for the pass's contact, which acks nothing."""
        touched = {delta.fields.get("license_id") for delta in deltas}
        budgets = {license_id: self.desired_budget(license_id)
                   for license_id in touched if license_id is not None}
        batch = ReplicaBatch(source=self.name, budget=self.budget,
                             deltas=tuple(deltas), budgets=budgets,
                             epoch=epoch)
        if not self._call(peer_name, "replicate", batch):
            self.deltas_dropped += len(deltas)
        elif deltas:
            self.batches_sent += 1
            self._ack(peer_name, self._grant_units(deltas), deltas[-1].seq)
            self._ship_budgets(peer_name, budgets)

    def flush_now(self) -> None:
        """Drain pending deltas and ship one batch per follower."""
        with self._flush_serial:
            with self._lock:
                drained = list(self._pending)
                self._pending.clear()
                if not drained:
                    self._ack_cond.notify_all()
                    return
            coalesced = self._coalesce(drained)
            self.deltas_coalesced += len(drained) - len(coalesced)
            per_peer: Dict[str, List[ReplicaDelta]] = {}
            with self._lock:
                epoch = self.epoch
                for delta in coalesced:
                    for peer_name in self._route(delta):
                        per_peer.setdefault(peer_name, []).append(delta)
                needy = set(self._needs_snapshot)
            for peer_name, deltas in per_peer.items():
                if peer_name in needy:
                    # The stream to this peer is broken or its replica
                    # suspect; deltas would land on the wrong state.
                    # The pass supersedes them.
                    self.deltas_dropped += len(deltas)
                else:
                    self._ship_batch(peer_name, deltas, epoch)

    def snapshot_now(self) -> None:
        """The reconciliation pass: one empty batch to every warm peer
        (which is how an idle stream surfaces a restarted follower or
        a fence), then a rebuild — WAL-shipped bootstrap for cold peers
        when durable storage is attached, the in-memory snapshot
        otherwise — for every peer there is evidence against."""
        license_ids = self.remote.license_ids()
        with self._flush_serial:
            with self._lock:
                epoch = self.epoch
                for license_id in license_ids:
                    self._live_followers(license_id)  # marks moved routes
                warm = [peer for peer in self.peers
                        if peer not in self._fenced
                        and peer not in self._needs_snapshot]
            for peer_name in warm:
                self._ship_batch(peer_name, [], epoch)
            with self._lock:
                needy = dict(self._needs_snapshot)
            cold = [peer for peer, reason in needy.items()
                    if reason == "cold"]
            if self.exporter is not None and cold:
                try:
                    self._bootstrap_now(cold, epoch)
                except Exception:  # noqa: BLE001 - exporter fault
                    cold = []  # fall back to classic snapshots
                for peer_name in cold:
                    del needy[peer_name]  # a failed call waits a pass
            for peer_name in needy:
                self._snapshot_peer(peer_name, epoch)

    def _landed(self, peer_name: str, grants: Dict[str, int], seq: int,
                budgets: Dict[str, int]) -> None:
        """A snapshot/bootstrap rebuilt the peer's replica as of
        ``seq``: the evidence against it is spent."""
        with self._lock:
            reason = self._needs_snapshot.pop(peer_name, None)
            if reason is not None:
                self.reconciled[reason] += 1
        self._ack(peer_name, grants, seq)
        self._ship_budgets(peer_name, budgets)

    def _bootstrap_now(self, targets: List[str], epoch: int) -> None:
        """Ship one durable export to every cold peer."""
        capture: Dict[str, Any] = {}

        def cut() -> None:
            # Runs inside the exporter's quiesce (every license lock
            # held, WAL synced): the replication seq here names exactly
            # the state the export contains.
            with self._lock:
                capture["seq"] = self._seq
                capture["covered"] = {
                    name: dict(self._unacked.get(name, {}))
                    for name in targets
                }

        snapshot, records = self.exporter(cut)
        budgets = {license_id: self.desired_budget(license_id)
                   for license_id in self.remote.license_ids()}
        chunk = BootstrapChunk(
            source=self.name, seq=capture["seq"], budget=self.budget,
            snapshot=snapshot, records=records, budgets=budgets,
            epoch=epoch,
        )
        for name in targets:
            if self._call(name, "bootstrap", chunk):
                self.bootstraps_sent += 1
                self._landed(name, capture["covered"].get(name, {}),
                             capture["seq"], budgets)

    def _snapshot_peer(self, peer_name: str, epoch: int) -> None:
        """Ship the classic in-memory snapshot to one peer.

        The export and its seq are one cut: identity events fire under
        the clients lock and a license's under its own (both
        re-entrant; clients before license is the documented order),
        so with all of them held every delta at or below ``seq`` is in
        the snapshot and none above it is — the follower drops the
        former as replays and applies the latter, and no later
        snapshot is needed to paper over a grant that slipped between
        the export and the watermark.
        """
        remote = self.remote
        followed = sorted(
            license_id for license_id in remote.license_ids()
            if peer_name in self.followers_for(license_id))
        states = [remote.license_state(license_id)
                  for license_id in followed]
        with contextlib.ExitStack() as cut:
            cut.enter_context(remote._clients_lock)
            for state in states:
                cut.enter_context(state.lock)
            licenses = {license_id: remote.export_license_state(license_id)
                        for license_id in followed}
            identity = remote.export_identity()
            # Grants still in the pending queue are in the export too,
            # but stay unacked until their own flush acks them.
            with self._lock:
                covered = {
                    license_id:
                        self._unacked.get(peer_name, {}).get(license_id, 0)
                        - self._pending_grants(license_id)
                    for license_id in licenses
                }
                seq = self._seq
        budgets = {license_id: self.desired_budget(license_id)
                   for license_id in licenses}
        snapshot = ShardSnapshot(
            source=self.name, seq=seq, budget=self.budget,
            licenses=licenses, identity=identity,
            budgets=budgets, epoch=epoch,
        )
        if self._call(peer_name, "sync_snapshot", snapshot):
            self.snapshots_sent += 1
            self._landed(peer_name, covered, seq, budgets)

    def _pending_grants(self, license_id: str) -> int:
        """Grant units still queued for ``license_id`` (lock held)."""
        return sum(
            delta.fields["units"] for delta in self._pending
            if delta.event == "grant"
            and delta.fields.get("license_id") == license_id
        )

    @staticmethod
    def _grant_units(deltas: List[ReplicaDelta]) -> Dict[str, int]:
        grants: Dict[str, int] = {}
        for delta in deltas:
            if delta.event == "grant":
                license_id = delta.fields["license_id"]
                grants[license_id] = (grants.get(license_id, 0)
                                      + delta.fields["units"])
        return grants

    def _ack(self, peer_name: str, grants: Dict[str, int],
             seq: int) -> None:
        with self._lock:
            bucket = self._unacked.get(peer_name)
            if bucket is not None:
                for license_id, units in grants.items():
                    remaining = bucket.get(license_id, 0) - units
                    if remaining > 0:
                        bucket[license_id] = remaining
                    else:
                        bucket.pop(license_id, None)
                if not bucket:
                    self._unacked.pop(peer_name, None)
            if seq > self._acked_seq.get(peer_name, 0):
                self._acked_seq[peer_name] = seq
            self._ack_cond.notify_all()


# ----------------------------------------------------------------------
# Follower side
# ----------------------------------------------------------------------
@dataclass
class SourceReplica:
    """Everything this shard replicates *from* one source shard."""

    source: str
    budget: int = DEFAULT_LAG_BUDGET_UNITS
    last_seq: int = 0
    #: license_id -> mutable wire-form record (export_license_state).
    licenses: Dict[str, Any] = None  # type: ignore[assignment]
    identity: Dict[str, Any] = None  # type: ignore[assignment]
    #: license_id -> the largest adaptive lag budget the source has
    #: shipped us (falls back to the flat ``budget`` when absent).
    budgets: Dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.licenses is None:
            self.licenses = {}
        if self.identity is None:
            self.identity = {"next_slid": 1, "clients": {}}
        if self.budgets is None:
            self.budgets = {}

    def budget_for(self, license_id: str) -> int:
        return self.budgets.get(license_id, self.budget)


class FollowerStore:
    """Replicated state held on behalf of other shards.

    Fencing: once :meth:`fence` records an epoch for a source, any
    message from that source carrying a *lower* epoch is answered with
    ``{"status": "fenced", "epoch": E}`` instead of being applied —
    the partitioned-stale-primary rejection the promotion protocol
    relies on.  (Routers number promotions from epoch 1, so a live
    source's epoch-0 traffic is always below its fence.)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[str, SourceReplica] = {}
        #: source name -> epoch it was promoted away at.
        self._fenced: Dict[str, int] = {}
        self.deltas_applied = 0
        self.deltas_skipped = 0
        self.snapshots_applied = 0
        self.bootstraps_applied = 0

    # -- fencing --------------------------------------------------------
    def fence(self, source: str, epoch: int) -> None:
        with self._lock:
            if epoch > self._fenced.get(source, -1):
                self._fenced[source] = epoch

    def fences(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._fenced)

    def _fence_check(self, source: str,
                     epoch: int) -> Optional[Dict[str, Any]]:
        """Rejection envelope for a stale source, or None (lock held)."""
        fenced = self._fenced.get(source)
        if fenced is not None and epoch < fenced:
            return {"status": "fenced", "epoch": fenced}
        return None

    def _claim(self, source: str, license_ids: List[str]) -> None:
        """``source`` just proved ownership of these licenses: purge
        stale copies replicated from anyone else (lock held).  This is
        what keeps a *sequence* of promotions safe — the adopted
        license's fresh stream supersedes the dead primary's old
        replica everywhere it landed."""
        if not license_ids:
            return
        for other_name, other in self._sources.items():
            if other_name == source:
                continue
            for license_id in license_ids:
                other.licenses.pop(license_id, None)

    # -- application ----------------------------------------------------
    def apply_batch(self, batch: ReplicaBatch,
                    issue_record: Optional[Callable[[Dict[str, Any]],
                                                    Dict[str, Any]]] = None,
                    ) -> Dict[str, Any]:
        with self._lock:
            rejected = self._fence_check(batch.source, batch.epoch)
            if rejected is not None:
                return rejected
            replica = self._sources.setdefault(
                batch.source, SourceReplica(source=batch.source)
            )
            replica.budget = batch.budget
            self._merge_budgets(replica, batch.budgets)
            prior_seq, skipped = replica.last_seq, 0
            claimed: List[str] = []
            for delta in batch.deltas:
                if delta.seq <= replica.last_seq:
                    continue  # replayed batch; deltas are idempotent by seq
                replica.last_seq = delta.seq
                # Any delta naming a license asserts the sender's
                # ownership of it — stale copies under other (dead)
                # sources are purged even when this delta itself
                # cannot be applied yet.
                license_id = delta.fields.get("license_id")
                if license_id is not None:
                    claimed.append(license_id)
                if self._apply_delta(replica, delta, issue_record):
                    self.deltas_applied += 1
                else:
                    skipped += 1
            self.deltas_skipped += skipped
            self._claim(batch.source, claimed)
            # prior_seq/skipped are the source's evidence that this
            # replica is (not) what its stream built.
            return {"status": "ok", "seq": replica.last_seq,
                    "prior_seq": prior_seq, "skipped": skipped}

    def apply_snapshot(self, snapshot: ShardSnapshot) -> Dict[str, Any]:
        with self._lock:
            rejected = self._fence_check(snapshot.source, snapshot.epoch)
            if rejected is not None:
                return rejected
            replica = self._sources.setdefault(
                snapshot.source, SourceReplica(source=snapshot.source)
            )
            replica.budget = snapshot.budget
            self._merge_budgets(replica, snapshot.budgets)
            # A snapshot replaces the replica, watermark included: a
            # restarted source counts from 0 again, and its deltas
            # must not read as replays of its previous life.
            replica.last_seq = snapshot.seq
            replica.licenses = dict(snapshot.licenses)
            replica.identity = snapshot.identity
            self._claim(snapshot.source, list(replica.licenses))
            self.snapshots_applied += 1
            return {"status": "ok", "seq": replica.last_seq}

    def apply_bootstrap(self, chunk: BootstrapChunk,
                        issue_record: Optional[
                            Callable[[Dict[str, Any]],
                                     Dict[str, Any]]] = None,
                        ) -> Dict[str, Any]:
        """Rebuild the replica from the source's durable state: the
        on-disk snapshot payload, then the WAL tail replayed past the
        snapshot's WAL watermark, then live deltas from ``chunk.seq``.
        """
        from repro.storage.wal import WriteAheadLog

        with self._lock:
            rejected = self._fence_check(chunk.source, chunk.epoch)
            if rejected is not None:
                return rejected
            replica = self._sources.setdefault(
                chunk.source, SourceReplica(source=chunk.source)
            )
            replica.budget = chunk.budget
            self._merge_budgets(replica, chunk.budgets)
            snapshot = chunk.snapshot or {}
            replica.licenses = {
                str(license_id): record
                for license_id, record in
                (snapshot.get("licenses") or {}).items()
            }
            identity = snapshot.get("identity")
            replica.identity = (dict(identity) if identity
                                else {"next_slid": 1, "clients": {}})
            wal_seq = int(snapshot.get("seq", 0) or 0)
            replayed = skipped = 0
            for record in WriteAheadLog.iter_frames(chunk.records):
                if record.seq <= wal_seq:
                    continue  # already folded into the snapshot
                delta = ReplicaDelta(record.seq, record.event,
                                     dict(record.fields))
                if self._apply_delta(replica, delta, issue_record):
                    replayed += 1
                else:
                    skipped += 1
            self.deltas_applied += replayed
            self.deltas_skipped += skipped
            replica.last_seq = chunk.seq
            self._claim(chunk.source, list(replica.licenses))
            self.bootstraps_applied += 1
            return {"status": "ok", "seq": replica.last_seq,
                    "replayed": replayed, "skipped": skipped}

    @staticmethod
    def _merge_budgets(replica: SourceReplica,
                       budgets: Dict[str, int]) -> None:
        """Budgets only ever grow: the source may clamp against any
        budget it successfully shipped, so the reserve honours the
        largest one ever seen even if a later message carries less."""
        for license_id, units in budgets.items():
            if units > replica.budgets.get(license_id, 0):
                replica.budgets[license_id] = units

    def _apply_delta(self, replica: SourceReplica, delta: ReplicaDelta,
                     issue_record: Optional[
                         Callable[[Dict[str, Any]],
                                  Dict[str, Any]]] = None) -> bool:
        """Mutate the replica; False when the delta had nothing to hit
        (unknown license — the next snapshot reconciles it)."""
        fields = delta.fields
        event = delta.event
        if event in ("escrow", "escrow_clear"):
            clients = replica.identity.setdefault("clients", {})
            slid = str(fields["slid"])
            if event == "escrow":
                clients[slid] = {
                    "escrowed_root_key": fields["root_key"],
                    "graceful_shutdown": True,
                }
            else:
                clients[slid] = {
                    "escrowed_root_key": None,
                    "graceful_shutdown": False,
                }
            replica.identity["next_slid"] = max(
                replica.identity.get("next_slid", 1), int(slid) + 1
            )
            return True
        if event == "admit":
            clients = replica.identity.setdefault("clients", {})
            slid = str(fields["slid"])
            clients.setdefault(slid, {"escrowed_root_key": None,
                                      "graceful_shutdown": False})
            replica.identity["next_slid"] = max(
                replica.identity.get("next_slid", 1), int(slid) + 1
            )
            return True
        if event == "install_identity":
            payload = fields["identity"]
            clients = replica.identity.setdefault("clients", {})
            for slid, entry in payload.get("clients", {}).items():
                clients[slid] = dict(entry)
            replica.identity["next_slid"] = max(
                replica.identity.get("next_slid", 1),
                int(payload.get("next_slid", 1)),
            )
            return True
        if event == "install_license":
            # A migration/promotion moved a whole record onto the
            # source: replicate it wholesale (it arrives with holdings
            # and ledger intact, unlike an "issue").
            replica.licenses[fields["license_id"]] = fields["record"]
            return True
        if event == "release":
            # Migrated away from the source: the new owner replicates
            # it now; holding a stale copy here risks double-serving.
            return replica.licenses.pop(fields["license_id"], None) is not None
        if event == "issue":
            # An "issue" delta carries no secret, so the record cannot
            # be built from the delta alone — unless the manager lends
            # us its fleet-shared secret via ``issue_record``; absent
            # that, the next snapshot pass delivers it.
            if issue_record is not None:
                replica.licenses[fields["license_id"]] = \
                    issue_record(fields)
                return True
            return False
        record = replica.licenses.get(fields.get("license_id"))
        if record is None:
            return False
        ledger = record["ledger"]
        holdings = record.setdefault("holdings", {})
        if event == "grant":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = (
                ledger["outstanding"].get(key, 0) + units
            )
            slid = _slid_of(key)
            holdings[slid] = holdings.get(slid, 0) + units
            return True
        if event == "return":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = max(
                0, ledger["outstanding"].get(key, 0) - units
            )
            slid = _slid_of(key)
            holdings[slid] = max(0, holdings.get(slid, 0) - units)
            return True
        if event == "writeoff":
            key, units = fields["node_key"], fields["units"]
            ledger["outstanding"][key] = max(
                0, ledger["outstanding"].get(key, 0) - units
            )
            ledger["lost_units"] += units
            holdings.pop(_slid_of(key), None)
            return True
        if event == "revoke":
            record["definition"]["revoked"] = True
            return True
        return False

    # -- promotion ------------------------------------------------------
    def licenses_of(self, source: str) -> List[str]:
        with self._lock:
            replica = self._sources.get(source)
            return sorted(replica.licenses) if replica is not None else []

    def take_license(self, source: str,
                     license_id: str) -> Optional[Tuple[Any, int]]:
        """Pop one replicated record; returns ``(record, budget)``."""
        with self._lock:
            replica = self._sources.get(source)
            if replica is None:
                return None
            record = replica.licenses.pop(license_id, None)
            if record is None:
                return None
            return record, replica.budget_for(license_id)

    def discard_license(self, source: str, license_id: str) -> None:
        with self._lock:
            replica = self._sources.get(source)
            if replica is not None:
                replica.licenses.pop(license_id, None)

    def identity_of(self, source: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            replica = self._sources.get(source)
            if replica is None:
                return None
            return {
                "next_slid": replica.identity.get("next_slid", 1),
                "clients": {slid: dict(entry) for slid, entry in
                            replica.identity.get("clients", {}).items()},
            }

    def probe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                source: {
                    "last_seq": replica.last_seq,
                    "budget": replica.budget,
                    "budgets": dict(replica.budgets),
                    "licenses": sorted(replica.licenses),
                }
                for source, replica in self._sources.items()
            }


# ----------------------------------------------------------------------
# Both sides, wired for one shard process
# ----------------------------------------------------------------------
class ReplicationManager:
    """One shard's replication role: source to followers, store for peers.

    ``peers`` maps peer shard name -> :class:`PeerLink`; an empty map
    (single-shard fleet, or replication off) degrades to a follower
    store only — the wire surface stays mounted so a probe or promote
    is still answerable (with nothing in it).

    ``followers_for(license_id)`` names the K peers replicating a
    license; ``owners_for(license_id)`` names the *full* ring order for
    it, which promotion uses to decide the adopter — the first owner
    not known dead.  Both are required with ``peers``; a shard without
    peers is its own whole ring.  ``quorum`` > 0 gates the
    ``init``/``shutdown`` handlers on that many follower acks of the
    identity watermark.  ``persistence`` (a
    :class:`~repro.storage.wal.ShardPersistence`) switches cold-peer
    reconciliation to WAL-shipped bootstrap.
    """

    def __init__(
        self,
        remote,
        name: str,
        peers: Optional[Dict[str, PeerLink]] = None,
        followers_for: Optional[Callable[[str], Sequence[str]]] = None,
        *,
        owners_for: Optional[Callable[[str], Sequence[str]]] = None,
        quorum: int = 0,
        quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT,
        lag_budget_units: int = DEFAULT_LAG_BUDGET_UNITS,
        lag_budget_grants: int = DEFAULT_LAG_BUDGET_GRANTS,
        flush_interval: float = 0.02,
        snapshot_interval: float = 0.5,
        persistence=None,
    ) -> None:
        self.remote = remote
        self.name = name
        self.store = FollowerStore()
        self.source: Optional[ReplicationSource] = None
        #: Highest promotion epoch this shard has participated in;
        #: stamped on outbound replication traffic via the source.
        self.epoch = 0
        self.quorum = max(0, int(quorum))
        self.quorum_timeout = quorum_timeout
        self.quorum_timeouts = 0
        self.owners_for = owners_for or (lambda license_id: (name,))
        self._promote_lock = threading.Lock()
        #: source name -> {license_id: reserved units} for promotions
        #: already performed (the idempotency memo every extra router
        #: asking again is answered from).
        self._promoted: Dict[str, Dict[str, int]] = {}
        if peers:
            if followers_for is None or owners_for is None:
                raise ValueError("peers need followers_for and owners_for")
            self.source = ReplicationSource(
                remote, name, peers, followers_for,
                lag_budget_units=lag_budget_units,
                lag_budget_grants=lag_budget_grants,
                flush_interval=flush_interval,
                snapshot_interval=snapshot_interval,
            )
            if persistence is not None:
                self.source.exporter = persistence.export_bootstrap

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self.source is not None:
            self.source.start()

    def stop(self) -> None:
        if self.source is not None:
            self.source.stop()

    # -- wire surface ---------------------------------------------------
    def peer_handlers(self) -> Dict[str, Callable]:
        """The fleet-internal surface peers call: bound methods that
        never change, so a link resolves them once."""
        return {
            "replicate": self.handle_replicate,
            "sync_snapshot": self.handle_snapshot,
            "bootstrap": self.handle_bootstrap,
            "promote": self.handle_promote,
            "replication_probe": self.handle_probe,
        }

    def extra_handlers(self) -> Dict[str, Callable]:
        """What a server mounts beside the protocol: the peer surface
        plus, with a quorum, the gated ``init``/``shutdown``."""
        handlers = self.peer_handlers()
        if self.source is not None and self.quorum > 0:
            # Identity quorum: hold the client's ack until a majority
            # of live followers could survive this shard's death with
            # the admit/escrow intact.  Mounted as extra handlers so
            # they override the remote's own protocol bindings.
            protocol = self.remote.protocol_handlers()
            for method in ("init", "shutdown"):
                inner = protocol.get(method)
                if inner is not None:
                    handlers[method] = self._gated(inner)
        return handlers

    def _gated(self, inner: Callable) -> Callable:
        # The wrapper must advertise clock/stats so HandlerTable's
        # signature introspection keeps threading them through to the
        # wrapped protocol handler.
        parameters = inspect.signature(inner).parameters
        wants = {name for name in ("clock", "stats") if name in parameters}

        def gated(request: Any, clock: Any = None, stats: Any = None) -> Any:
            kwargs = {}
            if "clock" in wants and clock is not None:
                kwargs["clock"] = clock
            if "stats" in wants and stats is not None:
                kwargs["stats"] = stats
            response = inner(request, **kwargs)
            if not self.source.wait_identity_quorum(
                    self.quorum, timeout=self.quorum_timeout):
                self.quorum_timeouts += 1
            return response
        return gated

    def handle_replicate(self, batch: ReplicaBatch) -> Dict[str, Any]:
        return self.store.apply_batch(batch,
                                      issue_record=self._issue_record)

    def handle_snapshot(self, snapshot: ShardSnapshot) -> Dict[str, Any]:
        return self.store.apply_snapshot(snapshot)

    def handle_bootstrap(self, chunk: BootstrapChunk) -> Dict[str, Any]:
        return self.store.apply_bootstrap(chunk,
                                          issue_record=self._issue_record)

    def _issue_record(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Synthesize the wire record for an ``issue`` delta.

        WAL/delta "issue" events deliberately omit the license secret;
        fleet shards share the server secret, so the follower can
        rebuild the full record locally instead of waiting for a
        snapshot to deliver it.
        """
        license_id = fields["license_id"]
        return {
            "definition": {
                "license_id": license_id,
                "kind": fields["kind"],
                "total_units": fields["total_units"],
                "tick_seconds": fields.get("tick_seconds", 0.0),
                "secret": self.remote._server_secret.hex(),
                "revoked": False,
            },
            "ledger": {
                "license_id": license_id,
                "total_gcl": fields["total_units"],
                "beta": self.remote.policy.default_beta,
                "outstanding": {},
                "lost_units": 0,
                "node_conditions": {},
            },
            "frozen": False,
            "holdings": {},
        }

    def handle_probe(self, _payload: Any = None) -> Dict[str, Any]:
        result = {
            "name": self.name,
            "epoch": self.epoch,
            "quorum": self.quorum,
            "follows": self.store.probe(),
            "fences": self.store.fences(),
            "promoted": {source: dict(reserves)
                         for source, reserves in self._promoted.items()},
        }
        if self.source is not None:
            with self.source._lock:
                unacked = {peer: dict(bucket) for peer, bucket
                           in self.source._unacked.items()}
                peaks = dict(self.source._peak)
                shipped = {peer: dict(bucket) for peer, bucket
                           in self.source._shipped.items()}
                acked_seq = dict(self.source._acked_seq)
                seq = self.source._seq
                identity_seq = self.source._identity_seq
                fenced = dict(self.source._fenced)
                reconciled = dict(self.source.reconciled)
            result["replicates"] = {
                "budget": self.source.budget,
                "grants_budget": self.source.grants_budget,
                "seq": seq,
                "identity_seq": identity_seq,
                "unacked": unacked,
                "peaks": peaks,
                "shipped": shipped,
                "acked_seq": acked_seq,
                "fenced": fenced,
                "batches_sent": self.source.batches_sent,
                "snapshots_sent": self.source.snapshots_sent,
                "bootstraps_sent": self.source.bootstraps_sent,
                "reconciled": reconciled,
                "fenced_rejections": self.source.fenced_rejections,
            }
        return result

    def health(self) -> Dict[str, Any]:
        """Replication health for ``_server_stats``: per-peer ack lag,
        epoch, quorum size and shipping counters."""
        result: Dict[str, Any] = {
            "epoch": self.epoch,
            "quorum": self.quorum,
            "quorum_timeouts": self.quorum_timeouts,
            "promoted": sorted(self._promoted),
            "follows": {
                "deltas_applied": self.store.deltas_applied,
                "deltas_skipped": self.store.deltas_skipped,
                "snapshots_applied": self.store.snapshots_applied,
                "bootstraps_applied": self.store.bootstraps_applied,
            },
        }
        source = self.source
        if source is not None:
            with source._lock:
                seq = source._seq
                identity_seq = source._identity_seq
                peers = {
                    peer: {
                        "acked_seq": source._acked_seq.get(peer, 0),
                        "ack_lag": max(
                            0, seq - source._acked_seq.get(peer, 0)),
                        "needs_snapshot": peer in source._needs_snapshot,
                        "fenced": peer in source._fenced,
                    }
                    for peer in source.peers
                }
            result["replicates"] = {
                "seq": seq,
                "identity_seq": identity_seq,
                "peers": peers,
                "grants_budget": source.grants_budget,
                "batches_sent": source.batches_sent,
                "snapshots_sent": source.snapshots_sent,
                "bootstraps_sent": source.bootstraps_sent,
                "fenced_rejections": source.fenced_rejections,
            }
        return result

    def _adopter_of(self, license_id: str, dead: Set[str]) -> str:
        """The shard that should install a dead primary's license: the
        first owner in full ring order that is not known dead."""
        for owner in self.owners_for(license_id):
            if owner not in dead:
                return owner
        return self.name

    def handle_promote(self, request: Any) -> Dict[str, Any]:
        """Fold replicas held for a dead ``source`` into serving state.

        ``request`` is the router's ``{"source", "epoch"}``.  The epoch
        fences the dead source in the follower store (its late traffic
        is rejected, not applied) and ratchets this shard's own epoch
        so its outbound stream outranks the deposed primary's.

        The pessimistic-loss rule, scoped to the lag window: for each
        *adopted* license, ``min(available, shipped budget)`` units
        are moved to ``lost`` before installing — every grant the dead
        primary made that this replica never saw is covered by that
        reserve, because the source only ever clamped grants against
        budgets its followers had already acknowledged.  Every call
        rescans *all* dead sources, so a simultaneous second death is
        healed by whichever survivor is next in ring order per
        license.  Idempotent: the first caller does the work, every
        later caller gets the memo.
        """
        if not isinstance(request, dict):
            raise ValueError('promote takes {"source", "epoch"}')
        source, epoch = request["source"], int(request["epoch"])
        self.store.fence(source, epoch)
        if self.source is not None:
            # The fleet shrank: stop streaming to (and backpressuring
            # for) the dead shard.
            self.source.drop_peer(source)
        with self._promote_lock:
            if epoch > self.epoch:
                self.epoch = epoch
                if self.source is not None:
                    self.source.epoch = epoch
            already = source in self._promoted
            self._promoted.setdefault(source, {})
            dead = set(self._promoted)
            served = set(self.remote.license_ids())
            for dead_source in sorted(dead):
                memo = self._promoted.setdefault(dead_source, {})
                for license_id in self.store.licenses_of(dead_source):
                    if license_id in served:
                        # Already serving it (migrated here while the
                        # source was live, or adopted in an earlier
                        # pass): the stale replica copy must go.
                        self.store.discard_license(dead_source,
                                                   license_id)
                        continue
                    if self._adopter_of(license_id, dead) != self.name:
                        # Another survivor outranks us in ring order;
                        # keep the replica in case it dies too.
                        continue
                    taken = self.store.take_license(dead_source,
                                                    license_id)
                    if taken is None:
                        continue
                    record, budget = taken
                    ledger = record["ledger"]
                    reserve = min(max(_wire_available(ledger), 0), budget)
                    ledger["lost_units"] += reserve
                    record["frozen"] = False
                    self.remote.install_license_state(record)
                    served.add(license_id)
                    memo[license_id] = reserve
            if not already:
                identity = self.store.identity_of(source)
                if identity is not None:
                    self.remote.install_identity(identity)
            return {"status": "ok", "already": already,
                    "installed": dict(self._promoted[source]),
                    "epoch": self.epoch}
