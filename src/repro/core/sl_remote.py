"""SL-Remote: the trusted license server.

Responsibilities (Sections 5.1-5.3, 5.6-5.7):

* issue licenses and hold the authoritative GCL pool per license;
* validate SL-Local instances via remote attestation, assign SLIDs;
* run the adaptive renewal policy (Algorithm 1) when handing out
  sub-GCLs;
* escrow root sealing keys at graceful shutdown and return them as the
  old-backup key (OBK) at next init;
* enforce the pessimistic crash rule: an SL-Local that re-inits without
  having shut down gracefully forfeits every unit it held.

Concurrency model
-----------------
SL-Remote is safe for concurrent dispatch: the wire server
(:mod:`repro.net.aio`) calls handlers from up to ``max_workers`` pool
threads at once without any global serialization.  State is
partitioned so renewals for *different* licenses never contend:

* every license's definition + ledger live in one
  :class:`LicenseShardState` record guarded by its own re-entrant lock;
  a client's per-license holdings entry is guarded by that same lock
  (ledger and holdings must move together for unit conservation);
* the client/SLID registry (records, graceful flags, escrowed keys,
  SLID allocation) is guarded by ``_clients_lock``;
* service counters are guarded by ``_counters_lock``.

Lock ordering: ``_clients_lock`` may be held while acquiring a license
lock (the crash write-off path), never the reverse — a thread holding a
license lock must not touch the client registry lock.  The WAL
compactor (:mod:`repro.storage.wal`) takes the strongest cut along the
same hierarchy: ``_clients_lock`` → ``_registry_lock`` → every license
lock in sorted order, which excludes all writers while a snapshot +
log-truncation pair is made atomic.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.gcl import LeaseKind
from repro.core.protocol import (
    BatchRequest,
    BatchResponse,
    InitRequest,
    InitResponse,
    MigratingNotice,
    RenewRequest,
    RenewResponse,
    ShutdownNotice,
    Status,
)
from repro.core.renewal import (
    LicenseLedger,
    NodeCondition,
    RenewalPolicy,
    renew_lease_inplace,
)
from repro.core.licensefile import VENDOR_SECRET, mint_license_blob
from repro.sgx.attestation import AttestationError, RemoteAttestationService
from repro.sim.clock import Clock
from repro.sgx.driver import SgxStats


class LicenseUnknown(Exception):
    """Raised when operating on a license SL-Remote never issued."""


#: Smoothing factor for the per-license concurrency EWMA (Algorithm 1's
#: C, measured instead of assumed).
CONCURRENCY_EWMA_ALPHA = 0.2
#: Renewals between auto-tuner evaluations.
AUTOTUNE_INTERVAL = 64
#: Bounds the auto-tuner may move the replication lag budget (grants)
#: and the expected-loss bound τ within.
AUTOTUNE_MAX_LAG_GRANTS = 64
AUTOTUNE_TAU_MAX = 0.25
AUTOTUNE_TAU_MIN = 0.05


@dataclass
class LicenseDefinition:
    """A license as provisioned by the software developer."""

    license_id: str
    kind: LeaseKind
    total_units: int
    tick_seconds: float = 0.0
    secret: bytes = b""
    revoked: bool = False

    def license_blob(self) -> bytes:
        """The license file handed to legitimate users.

        Minted under the vendor secret; both SL-Remote and the in-app
        authentication module validate the same bytes.
        """
        return mint_license_blob(self.license_id, self.secret)


@dataclass
class LicenseShardState:
    """All server-side state of one license, plus the lock guarding it.

    This is the unit of concurrency *and* of sharding: two requests
    touching different ``LicenseShardState`` records proceed in
    parallel, and a consistent-hash ring (:mod:`repro.net.sharding`)
    can place whole records on different server processes without any
    cross-license coupling.
    """

    definition: LicenseDefinition
    ledger: LicenseLedger
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: True while the record is mid-migration between shards: license-
    #: scoped handlers answer with a typed retry-after
    #: (:class:`~repro.core.protocol.MigratingNotice`) instead of
    #: mutating a ledger that is about to move.
    frozen: bool = False
    # ------------------------------------------------------------------
    # Renewal-health accounting (guarded by ``lock`` like the ledger).
    # Monitoring state, not conserved license state: a migrated or
    # promoted record starts these at zero on the new owner.
    # ------------------------------------------------------------------
    #: EWMA of simultaneous holders+requesters — the measured Algorithm 1
    #: concurrency C fed back into ``renew_lease`` as a hint.
    concurrency_ewma: float = 0.0
    #: OK renewals granted for this license.
    grants: int = 0
    #: Renewals answered EXHAUSTED for this license.
    exhausted: int = 0
    #: Grants the admission ladder shrank (or floored) below what
    #: Algorithm 1 proposed.
    degraded: int = 0
    #: log2 grant-size histogram: ``granted.bit_length() -> count``.
    grant_hist: Dict[int, int] = field(default_factory=dict)
    #: Last shipped transport telemetry per node key: ``{rtt_seconds,
    #: retries, reconnects}`` — the evidence behind claimed reliability.
    node_telemetry: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class _ClientState:
    """Server-side record of one SL-Local instance."""

    slid: int
    escrowed_root_key: Optional[int] = None
    graceful_shutdown: bool = False
    #: outstanding units per license (mirror of the ledgers, per client);
    #: each entry is guarded by that license's LicenseShardState.lock.
    holdings: Dict[str, int] = field(default_factory=dict)


class SlRemote:
    """The trusted remote server.

    The durable write SL-Remote owes after every ledger mutation (the
    monotonic-counter-class persistence that stops a crash from
    resurrecting spent units) is made by whoever observes the mutation:
    an attached :class:`~repro.storage.wal.ShardPersistence` journals
    and fsyncs inside ``_emit``, under the license lock, before the
    handler builds its reply.  Without one the ledger lives in RAM.
    """

    def __init__(
        self,
        ras: RemoteAttestationService,
        policy: Optional[RenewalPolicy] = None,
        server_secret: bytes = VENDOR_SECRET,
        admission: bool = True,
        autotune_lag: bool = False,
    ) -> None:
        self._ras = ras
        self.policy = policy if policy is not None else RenewalPolicy()
        self._server_secret = server_secret
        #: Adaptive admission control (the Algorithm 1 control loop's
        #: server half): remembered node conditions, measured-concurrency
        #: hints, telemetry evidence weighting, and the degrade-before-
        #: refuse grant ladder.  ``False`` restores the static baseline
        #: (fabricated perfect holder conditions, flat EXHAUSTED refusal)
        #: for A/B comparison — the scenario engine runs both.
        self.admission = admission
        #: Auto-tune the replication lag budget and τ online from the
        #: observed forfeiture-vs-refusal balance.
        self.autotune_lag = autotune_lag
        self._states: Dict[str, LicenseShardState] = {}
        self._registry_lock = threading.Lock()
        self._clients: Dict[int, _ClientState] = {}
        self._clients_lock = threading.RLock()
        self._next_slid = 1
        self._counters_lock = threading.Lock()
        #: Total renewals served — batched members count individually
        #: (network-cost accounting).
        self.renewals_served = 0
        #: ``renew_batch`` frames served (each carrying >= 1 renewals).
        self.batches_served = 0
        self.inits_served = 0
        #: Renewals answered EXHAUSTED (pool empty *or* replication
        #: backpressure clamped the grant to zero) — the signal the
        #: adaptive-renewal loop and replication health surface watch.
        self.exhausted_served = 0
        #: Grants the admission ladder degraded below Algorithm 1's
        #: proposal instead of refusing outright.
        self.degraded_served = 0
        #: State-change observers: callables ``(event, fields_dict)``
        #: invoked under the lock guarding the mutated state, so one
        #: license's events arrive in commit order (replication hooks).
        self._observers: List[Callable[[str, Dict[str, Any]], None]] = []
        #: license_id -> new owner ("name" or "name=host:port"): a
        #: tombstone left after an outbound migration so stale callers
        #: are redirected instead of recreating the license here.
        self._moved: Dict[str, str] = {}
        #: Optional replication backpressure: called under the license
        #: lock with ``(license_id, proposed_units)``, returns how many
        #: more units may be granted before un-replicated state would
        #: exceed the lag budget (or None for "no live follower, no
        #: clamp").  The proposed size lets the budget adapt to the
        #: observed grant scale.  The hook itself being None means no
        #: replication is configured.
        self.grant_headroom: Optional[
            Callable[[str, int], Optional[int]]
        ] = None
        #: Optional group-commit hook (:mod:`repro.storage.wal`): a
        #: context-manager factory wrapping one ``renew_batch`` dispatch
        #: so every ledger event the batch journals rides a single
        #: deferred fsync instead of one per renewal.
        self.commit_group: Optional[Callable[[], Any]] = None
        #: Optional lag-budget control (the auto-tuner's actuator,
        #: symmetric to ``grant_headroom``): called with a scale factor,
        #: multiplies the replication source's per-license grants budget
        #: by it (clamped) and returns the applied value.  None when the
        #: server does not replicate — the tuner then only moves τ.
        self.lag_budget_control: Optional[Callable[[float], int]] = None
        # Auto-tuner bookkeeping: deltas since the last evaluation.
        self._autotune_lock = threading.Lock()
        self._autotune_last_renewals = 0
        self._autotune_last_exhausted = 0
        self._autotune_last_lost = 0
        self.autotune_widened = 0
        self.autotune_narrowed = 0

    # ------------------------------------------------------------------
    # Wire protocol surface
    # ------------------------------------------------------------------
    def protocol_handlers(self) -> Dict[str, Callable]:
        """Method table every transport backend serves (the one place
        the method-name -> handler binding is defined).

        ``admit``/``crash``/``ledger_probe`` are fleet-internal methods
        used by the shard router (:mod:`repro.net.sharding`) to mirror
        client identity and crash write-offs across shards, and by load
        harnesses to audit unit conservation.  A production deployment
        would authenticate shard peers (mutual attestation) before
        honouring them; the reproduction trusts the router.
        """
        return {
            "init": self.handle_init,
            "renew": self.handle_renew,
            "renew_batch": self.handle_renew_batch,
            "shutdown": self.handle_shutdown,
            "return_units": lambda request: self.return_units(*request),
            "admit": self.handle_admit,
            "crash": self.handle_crash,
            "ledger_probe": self.handle_ledger_probe,
            # Membership/migration surface (router-driven, fleet-internal).
            "freeze": self.freeze_license,
            "thaw": self.thaw_license,
            "release": lambda request: self.release_license(*request),
            "export_license": self.export_license_state,
            "install_license": self.install_license_state,
            "export_identity": lambda request: self.export_identity(),
            "install_identity": self.install_identity,
        }

    # ------------------------------------------------------------------
    # State-change observers (replication hooks)
    # ------------------------------------------------------------------
    def add_observer(
        self, observer: Callable[[str, Dict[str, Any]], None]
    ) -> None:
        """Subscribe to state-change events.

        The observer is called *under the lock guarding the mutated
        state* — per-license events arrive in ledger-commit order, so a
        replication stream built from them replays to the same ledger.
        Observers must therefore be cheap and must never call back into
        this server.
        """
        self._observers.append(observer)

    def _emit(self, event: str, **fields: Any) -> None:
        for observer in self._observers:
            observer(event, fields)

    # ------------------------------------------------------------------
    # Developer-facing provisioning
    # ------------------------------------------------------------------
    def issue_license(self, license_id: str, total_units: int,
                      kind: LeaseKind = LeaseKind.COUNT,
                      tick_seconds: float = 0.0) -> LicenseDefinition:
        """Create a license with a total GCL pool of ``total_units``."""
        definition = LicenseDefinition(
            license_id=license_id,
            kind=kind,
            total_units=total_units,
            tick_seconds=tick_seconds,
            secret=self._server_secret,
        )
        state = LicenseShardState(
            definition=definition,
            ledger=LicenseLedger(
                license_id=license_id,
                total_gcl=total_units,
                beta=self.policy.default_beta,
            ),
        )
        with self._registry_lock:
            if license_id in self._states:
                raise ValueError(f"license {license_id!r} already issued")
            self._states[license_id] = state
            self._moved.pop(license_id, None)
            # Emitted under the registry lock so a WAL compaction cut
            # (which holds it) can never land between the insert and
            # the journal entry — the license is in the snapshot or in
            # the tail, never in neither.
            self._emit("issue", license_id=license_id, kind=kind.value,
                       total_units=total_units, tick_seconds=tick_seconds)
        return definition

    def revoke_license(self, license_id: str) -> None:
        """Revoke: future renewals fail; outstanding sub-GCLs drain out."""
        state = self.license_state(license_id)
        with state.lock:
            state.definition.revoked = True
            self._emit("revoke", license_id=license_id)

    def license_state(self, license_id: str) -> LicenseShardState:
        """The per-license state record (definition + ledger + lock)."""
        with self._registry_lock:
            state = self._states.get(license_id)
        if state is None:
            raise LicenseUnknown(license_id)
        return state

    def license_ids(self) -> List[str]:
        with self._registry_lock:
            return list(self._states)

    def ledger(self, license_id: str) -> LicenseLedger:
        return self.license_state(license_id).ledger

    def license_definition(self, license_id: str) -> LicenseDefinition:
        return self.license_state(license_id).definition

    # ------------------------------------------------------------------
    # SL-Local lifecycle
    # ------------------------------------------------------------------
    def handle_init(self, request: InitRequest, clock: Clock,
                    stats: SgxStats) -> InitResponse:
        """Section 5.2.4: remote-attest the SL-Local, return SLID + OBK.

        A re-init of a client that *did not* shut down gracefully is the
        crash path: its holdings are written off as lost (Section 5.7)
        and no OBK is returned, so a replayed tree image cannot restore.
        """
        with self._counters_lock:
            self.inits_served += 1
        try:
            self._ras.verify_remote(
                clock, stats, request.report, request.platform_secret
            )
        except AttestationError:
            return InitResponse(status=Status.ATTESTATION_FAILED)

        with self._clients_lock:
            if request.slid is None:
                slid = self._next_slid
                self._next_slid += 1
                self._clients[slid] = _ClientState(slid=slid)
                self._emit("admit", slid=slid)
                return InitResponse(status=Status.OK, slid=slid,
                                    old_backup_key=None)

            client = self._clients.get(request.slid)
            if client is None:
                return InitResponse(status=Status.UNKNOWN_CLIENT)

            if client.graceful_shutdown and client.escrowed_root_key is not None:
                obk = client.escrowed_root_key
                client.graceful_shutdown = False
                client.escrowed_root_key = None
                self._emit("escrow_clear", slid=client.slid)
                return InitResponse(status=Status.OK, slid=client.slid,
                                    old_backup_key=obk)

            # Crash path: pessimistically count every outstanding unit
            # lost (acquires license locks under the clients lock — the
            # one permitted ordering).
            self._write_off(client)
            return InitResponse(status=Status.OK, slid=client.slid,
                                old_backup_key=None)

    def handle_shutdown(self, notice: ShutdownNotice) -> Status:
        """Escrow the root key of a gracefully exiting SL-Local.

        Returns a typed :class:`Status` (``OK`` / ``UNKNOWN_CLIENT``)
        instead of raising, so over the wire a client can tell "the
        server does not know me" apart from a transport fault's generic
        error envelope.
        """
        with self._clients_lock:
            client = self._clients.get(notice.slid)
            if client is None:
                return Status.UNKNOWN_CLIENT
            client.escrowed_root_key = notice.root_key
            client.graceful_shutdown = True
            self._emit("escrow", slid=notice.slid, root_key=notice.root_key)
        return Status.OK

    def report_crash(self, slid: int) -> None:
        """Out-of-band crash signal (e.g. heartbeat loss): write off."""
        with self._clients_lock:
            client = self._clients.get(slid)
            if client is not None:
                self._write_off(client)

    def return_units(self, slid: int, license_id: str, units: int) -> Status:
        """A graceful SL-Local returns unused sub-GCL units to the pool.

        Typed statuses, like :meth:`handle_shutdown`: ``UNKNOWN_CLIENT``
        for a SLID the server never issued (distinguishable from wire
        faults), and :class:`LicenseUnknown` still raised for a license
        that was never provisioned (a server configuration error, not a
        client-state mismatch).
        """
        with self._clients_lock:
            client = self._clients.get(slid)
        if client is None:
            return Status.UNKNOWN_CLIENT
        moved = self._moved.get(license_id)
        if moved is not None:
            return MigratingNotice(license_id=license_id, new_owner=moved)
        state = self.license_state(license_id)
        with state.lock:
            if state.frozen:
                return MigratingNotice(license_id=license_id)
            held = client.holdings.get(license_id, 0)
            returned = min(units, held)
            client.holdings[license_id] = held - returned
            key = self._node_key(slid)
            state.ledger.outstanding[key] = max(
                0, state.ledger.outstanding.get(key, 0) - returned
            )
            if returned > 0:
                self._emit("return", license_id=license_id, node_key=key,
                           units=returned)
        return Status.OK

    # ------------------------------------------------------------------
    # Fleet-internal methods (shard router support)
    # ------------------------------------------------------------------
    def handle_admit(self, slid: int) -> Status:
        """Register a SLID assigned by another shard (idempotent).

        In a sharded fleet one *home* shard owns identity (attestation,
        SLID allocation, key escrow); the router then admits the SLID on
        every license-owning shard so renewals there recognise the
        client.  Local SLID allocation skips past admitted values so a
        direct init on this shard can never collide.
        """
        with self._clients_lock:
            self._next_slid = max(self._next_slid, slid + 1)
            if slid not in self._clients:
                self._clients[slid] = _ClientState(slid=slid)
                self._emit("admit", slid=slid)
        return Status.OK

    def handle_crash(self, slid: int) -> Status:
        """Wire-facing crash write-off (router broadcast on re-init)."""
        self.report_crash(slid)
        return Status.OK

    def handle_ledger_probe(
        self, payload: Any = None
    ) -> Dict[str, Dict[str, Any]]:
        """Ledger accounting snapshot, for monitoring and load harnesses.

        Returns ``{license_id: {total, outstanding, lost, available,
        holders, expected_loss}}`` — every field read from the ledger's
        O(1) running aggregates, so a probe costs constant work and
        constant bytes per license no matter how many nodes hold units.

        ``payload`` is either a license id (one license; ``None`` means
        all of them) or a dict ``{"license_id": ..., "detail": ...}``.
        ``detail="summary"`` adds the bounded per-license summary
        (top-k holders, log2 holding histogram); ``detail="full"`` is
        the explicit opt-in for the complete ``outstanding`` /
        ``node_conditions`` maps — O(C) bytes, never shipped by
        default.
        """
        detail = None
        license_id = payload
        if isinstance(payload, dict):
            license_id = payload.get("license_id")
            detail = payload.get("detail")
        ids = [license_id] if license_id is not None else self.license_ids()
        probe: Dict[str, Dict[str, Any]] = {}
        for lid in ids:
            state = self.license_state(lid)
            with state.lock:
                ledger = state.ledger
                row = {
                    "total": ledger.total_gcl,
                    "outstanding": ledger.outstanding_total,
                    "lost": ledger.lost_units,
                    "available": ledger.available,
                    "holders": ledger.holder_count,
                    "expected_loss": ledger.expected_loss(),
                }
                if detail == "summary":
                    row["summary"] = ledger_summary(ledger)
                elif detail == "full":
                    row["ledger"] = ledger_to_wire(ledger)
                probe[lid] = row
        return probe

    # ------------------------------------------------------------------
    # Migration surface (online ring membership changes)
    # ------------------------------------------------------------------
    def freeze_license(self, license_id: str) -> Status:
        """Halt mutations of one license while its record migrates.

        While frozen, ``renew``/``return_units`` answer with a
        :class:`~repro.core.protocol.MigratingNotice` retry-after
        envelope; nothing is mutated, so the exported state stays exact.
        """
        state = self.license_state(license_id)
        with state.lock:
            state.frozen = True
        return Status.OK

    def thaw_license(self, license_id: str) -> Status:
        """Resume serving a license (migration aborted or inbound done)."""
        state = self.license_state(license_id)
        with state.lock:
            state.frozen = False
        return Status.OK

    def export_license_state(self, license_id: str) -> Dict[str, Any]:
        """The full wire form of one license record + its holdings.

        Must be called on a frozen license (or one with no live traffic):
        the snapshot is taken under the license lock and is exact as of
        the return.
        """
        state = self.license_state(license_id)
        # Lock order: clients lock before license lock (the write-off
        # ordering) — never the reverse.
        with self._clients_lock, state.lock:
            holdings: Dict[str, int] = {}
            for slid, client in self._clients.items():
                units = client.holdings.get(license_id, 0)
                if units:
                    holdings[str(slid)] = units
            return {
                "definition": definition_to_wire(state.definition),
                "ledger": ledger_to_wire(state.ledger),
                "frozen": state.frozen,
                "holdings": holdings,
            }

    def install_license_state(self, payload: Dict[str, Any]) -> Status:
        """Install (or overwrite) a license record from its wire form.

        The inbound record arrives *unfrozen* — installation is the
        hand-off point, after which this shard serves the license.
        Unknown SLIDs in the holdings are admitted on the fly.
        """
        definition = definition_from_wire(payload["definition"])
        ledger = ledger_from_wire(payload["ledger"])
        # Reconstructing from wire form rebuilt the Equation 1
        # aggregates from scratch; prove it before serving — promotion
        # must never adopt a ledger whose running sums disagree with
        # its maps.
        ledger.audit_aggregates()
        state = LicenseShardState(
            definition=definition,
            ledger=ledger,
        )
        with self._registry_lock:
            self._states[definition.license_id] = state
            self._moved.pop(definition.license_id, None)
        for slid_text, units in payload.get("holdings", {}).items():
            slid = int(slid_text)
            self.handle_admit(slid)
            with self._clients_lock:
                client = self._clients[slid]
            with state.lock:
                client.holdings[definition.license_id] = units
        with self._registry_lock:
            # Journal the whole record wholesale (promotion installs a
            # replicated ledger this way): a shard that died right
            # after a promotion recovers the licenses it had just
            # adopted.  Registry lock for the same compaction-cut
            # atomicity as "issue".
            self._emit("install_license",
                       license_id=definition.license_id, record=payload)
        return Status.OK

    def release_license(self, license_id: str,
                        new_owner: Optional[str] = None) -> Status:
        """Drop a migrated-out license, leaving a redirect tombstone.

        Stale routers that still dial this shard get a
        ``MigratingNotice`` naming ``new_owner`` (``"name"`` or
        ``"name=host:port"``) and self-heal their ring view.
        """
        with self._registry_lock:
            state = self._states.pop(license_id, None)
            if new_owner:
                self._moved[license_id] = new_owner
        if state is None:
            return Status.UNKNOWN_CLIENT
        with self._clients_lock:
            for client in self._clients.values():
                with state.lock:
                    client.holdings.pop(license_id, None)
        with self._registry_lock:
            self._emit("release", license_id=license_id,
                       new_owner=new_owner)
        return Status.OK

    def export_identity(self) -> Dict[str, Any]:
        """Escrowed-key/graceful flags + SLID watermark, wire-ready."""
        with self._clients_lock:
            return {
                "next_slid": self._next_slid,
                "clients": {
                    str(slid): {
                        "escrowed_root_key": client.escrowed_root_key,
                        "graceful_shutdown": client.graceful_shutdown,
                    }
                    for slid, client in self._clients.items()
                },
            }

    def install_identity(self, payload: Dict[str, Any]) -> Status:
        """Fold another shard's identity snapshot into this one.

        Used when a follower takes over the *home* role: escrowed keys
        and graceful flags must survive, or every fleet client would be
        treated as crashed on its next re-init.
        """
        with self._clients_lock:
            self._next_slid = max(self._next_slid,
                                  int(payload.get("next_slid", 1)))
            for slid_text, fields in payload.get("clients", {}).items():
                slid = int(slid_text)
                client = self._clients.get(slid)
                if client is None:
                    client = _ClientState(slid=slid)
                    self._clients[slid] = client
                    self._next_slid = max(self._next_slid, slid + 1)
                if fields.get("escrowed_root_key") is not None:
                    client.escrowed_root_key = fields["escrowed_root_key"]
                    client.graceful_shutdown = bool(
                        fields.get("graceful_shutdown", False)
                    )
            self._emit("install_identity", identity=payload)
        return Status.OK

    def _write_off(self, client: _ClientState) -> None:
        for license_id in list(client.holdings):
            with self._registry_lock:
                state = self._states.get(license_id)
            if state is None:
                continue
            with state.lock:
                units = client.holdings.get(license_id, 0)
                key = self._node_key(client.slid)
                outstanding = state.ledger.outstanding.get(key, 0)
                lost = min(units, outstanding)
                state.ledger.outstanding[key] = outstanding - lost
                state.ledger.lost_units += lost
                client.holdings.pop(license_id, None)
                if lost > 0:
                    self._emit("writeoff", license_id=license_id,
                               node_key=key, units=lost)
        client.holdings.clear()
        client.escrowed_root_key = None
        client.graceful_shutdown = False
        self._emit("escrow_clear", slid=client.slid)

    # ------------------------------------------------------------------
    # Renewal
    # ------------------------------------------------------------------
    def handle_renew(self, request: RenewRequest) -> RenewResponse:
        """Validate the license blob and run Algorithm 1.

        The whole decision — availability check, Algorithm 1, ledger
        mutation, holdings update, durable commit — happens under the
        license's own lock, so concurrent renewals of one license can
        never over-grant while renewals of different licenses proceed in
        parallel.
        """
        with self._counters_lock:
            self.renewals_served += 1
        self._maybe_autotune()
        client, state, early = self._renew_prepare(request)
        if early is not None:
            return early
        with state.lock:
            return self._renew_locked(state, client, request)

    def handle_renew_batch(self, batch: BatchRequest) -> BatchResponse:
        """Vectorized renewal: answer a whole coalesced frame at once.

        The members are grouped by license and each group runs under its
        license's lock; the whole batch pays **one** durable commit —
        the server-side half of the batching win: N coalesced renewals
        cost one dispatch hop and one ledger commit instead of N of
        each.  When a :class:`~repro.storage.wal.ShardPersistence` is
        attached, ``commit_group`` scopes the batch so its journal
        appends ride a single group fsync, which has happened by the
        time the scope closes: the grants are durable before any member
        of the batch is acknowledged.  Licenses are visited in sorted
        order so the lock acquisition sequence is deterministic, and
        per-member faults (unknown client, frozen license, invalid blob)
        degrade only that slot, never the batch.
        """
        requests = list(batch.requests)
        with self._counters_lock:
            self.renewals_served += len(requests)
            self.batches_served += 1
        self._maybe_autotune()
        responses: List[Any] = [None] * len(requests)
        prepared: List[Any] = [None] * len(requests)
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            client, state, early = self._renew_prepare(request)
            if early is not None:
                responses[index] = early
            else:
                prepared[index] = (client, state)
                groups.setdefault(request.license_id, []).append(index)
        group_cm = (self.commit_group() if self.commit_group is not None
                    else contextlib.nullcontext())
        with group_cm:
            for license_id in sorted(groups):
                indices = groups[license_id]
                state = prepared[indices[0]][1]
                with state.lock:
                    for index in indices:
                        client, _ = prepared[index]
                        responses[index] = self._renew_locked(
                            state, client, requests[index]
                        )
        return BatchResponse(responses=tuple(responses))

    def _renew_prepare(
        self, request: RenewRequest
    ) -> Tuple[Optional[_ClientState], Optional[LicenseShardState],
               Optional[Any]]:
        """Pre-lock validation shared by single and batched renewals.

        Returns ``(client, state, None)`` when the renewal may proceed,
        or ``(None, None, terminal_response)`` when it is already
        answerable without touching the license lock.
        """
        with self._clients_lock:
            client = self._clients.get(request.slid)
        if client is None:
            return None, None, RenewResponse(status=Status.UNKNOWN_CLIENT)
        moved = self._moved.get(request.license_id)
        if moved is not None:
            return None, None, MigratingNotice(
                license_id=request.license_id, new_owner=moved
            )
        with self._registry_lock:
            state = self._states.get(request.license_id)
        if state is None or not self._blob_valid(state.definition,
                                                request.license_blob):
            return None, None, RenewResponse(status=Status.INVALID_LICENSE)
        return client, state, None

    def _renew_locked(self, state: LicenseShardState, client: _ClientState,
                      request: RenewRequest) -> Any:
        """Algorithm 1 under ``state.lock``; a grant is journalled (and,
        under ``--fsync always``, durable) when ``_emit("grant")``
        returns, i.e. before the response exists."""
        if state.frozen:
            return MigratingNotice(license_id=request.license_id)
        definition = state.definition
        if definition.revoked:
            return RenewResponse(status=Status.REVOKED)
        if definition.kind is LeaseKind.PERPETUAL:
            # Perpetual leases are a binary activation: no unit
            # accounting, no Algorithm 1 (Section 4.3).
            return RenewResponse(
                status=Status.OK,
                granted_units=1,
                lease_kind=definition.kind.value,
                tick_seconds=definition.tick_seconds,
            )
        ledger = state.ledger
        if ledger.available <= 0:
            self._note_refusal(state)
            return RenewResponse(status=Status.EXHAUSTED)

        node_key = self._node_key(request.slid)
        requester = NodeCondition(
            node_id=node_key,
            weight=request.weight,
            network_reliability=self._evidence_reliability(state, node_key,
                                                          request),
            health=request.health,
        )
        # Algorithm 1's C, from the ledger's running holder count — no
        # holder-set scan, so the renew path stays O(1) in how many
        # nodes hold this license.
        crowd = ledger.holder_count
        if ledger.outstanding.get(node_key, 0) <= 0:
            crowd += 1
        available_before = ledger.available
        hint = None
        if self.admission:
            # Measured Algorithm 1 concurrency: EWMA over holders +
            # this requester.  The hint only ever *raises* C inside the
            # renewal evaluation, so a decaying crowd keeps grants
            # conservative until the EWMA settles.
            sample = float(crowd)
            state.concurrency_ewma = (
                sample if state.concurrency_ewma <= 0.0
                else state.concurrency_ewma
                + CONCURRENCY_EWMA_ALPHA * (sample - state.concurrency_ewma)
            )
            hint = state.concurrency_ewma
        # With admission on, holders are priced at their remembered
        # conditions (the running aggregates); the static baseline
        # fabricates perfect holders, exactly like the old per-renewal
        # snapshot did.
        decision = renew_lease_inplace(ledger, requester, self.policy,
                                       concurrency_hint=hint,
                                       fabricate_holders=not self.admission)
        granted = decision.granted_units
        degraded = False
        if self.admission and granted > 0:
            # Admission ladder, upper rungs: under pool pressure, cap
            # the grant to a concurrency-fair slice of what is left so
            # late arrivals in a flash crowd still find units.
            cap = self._admission_cap(available_before,
                                      state.concurrency_ewma,
                                      ledger.total_gcl)
            if cap < granted:
                granted = cap
                degraded = True
        if self.admission and granted <= 0 and requester.health > 0.0:
            # Bottom rung: Algorithm 1's geometric decay talked itself
            # down to nothing while the pool still has units.  Hand out
            # the smallest honest slice instead of refusing — a
            # degraded grant keeps the client running.  The slice still
            # honours Equation 1 (a shaky requester only gets what the
            # remaining loss headroom under τ can absorb) and the
            # replication headroom clamp below.
            granted = self._admission_floor(available_before,
                                            state.concurrency_ewma)
            if granted > 0 and requester.health < 1.0:
                tau = self.policy.tau_fraction * ledger.total_gcl
                loss_headroom = tau - ledger.expected_loss()
                crash = 1.0 - requester.health
                granted = (min(granted, int(loss_headroom / crash))
                           if loss_headroom > 0 else 0)
                granted = max(granted, 0)
            degraded = granted > 0
        if granted > 0 and self.grant_headroom is not None:
            # Replication backpressure: never let un-replicated
            # grants exceed the lag budget — what the follower might
            # not know about is exactly what a promotion forfeits,
            # so this clamp is what makes the loss bound hold.  A
            # None headroom means the license has no live follower
            # (nothing to lag behind): no clamp.  A *zero* headroom
            # (fenced, or lag budget spent) is a hard refusal the
            # admission ladder must never override: a deposed primary
            # must not mint units its successor cannot know about.
            headroom = self.grant_headroom(
                request.license_id, max(decision.granted_units, granted)
            )
            if headroom is not None and headroom < granted:
                granted = headroom
                degraded = False
        # The renewal evaluation already booked its proposal;
        # re-book the difference to the final grant before answering —
        # down when a clamp shrank it (all the way to zero when
        # backpressure denies it), up when the ladder floor granted
        # where Algorithm 1 proposed nothing.
        if granted != decision.granted_units:
            booked = ledger.outstanding.get(node_key, 0)
            adjusted = booked + (max(granted, 0) - decision.granted_units)
            if adjusted > 0:
                ledger.outstanding[node_key] = adjusted
            else:
                ledger.outstanding.pop(node_key, None)
        if granted <= 0:
            self._note_refusal(state)
            return RenewResponse(status=Status.EXHAUSTED)
        state.grants += 1
        bucket = granted.bit_length()
        state.grant_hist[bucket] = state.grant_hist.get(bucket, 0) + 1
        if degraded:
            state.degraded += 1
            with self._counters_lock:
                self.degraded_served += 1
        client.holdings[request.license_id] = (
            client.holdings.get(request.license_id, 0) + granted
        )
        self._emit("grant", license_id=request.license_id,
                   node_key=self._node_key(request.slid), units=granted)
        return RenewResponse(
            status=Status.OK,
            granted_units=granted,
            lease_kind=definition.kind.value,
            tick_seconds=definition.tick_seconds,
        )

    def _evidence_reliability(self, state: LicenseShardState, node_key: str,
                              request: RenewRequest) -> float:
        """Weigh a claimed network reliability against shipped evidence.

        The client self-reports ``network_reliability``; the telemetry
        fields carry what its transport actually did.  Fresh drops or
        re-dials since the node's previous renewal cap the claim — a
        link that just lost ``d`` frames is priced at most ``1/(1+d)``
        reliable regardless of what it claims.  Lower reliability is not
        a punishment: per Algorithm 1 lines 6-8, a *healthy* node on a
        flaky link earns a larger sub-GCL to ride out disconnection.
        Always records the latest telemetry for ``renewal_health``.
        """
        claimed = request.network_reliability
        previous = state.node_telemetry.get(node_key)
        state.node_telemetry[node_key] = {
            "rtt_seconds": request.rtt_seconds,
            "retries": request.retries,
            "reconnects": request.reconnects,
        }
        if not self.admission or previous is None:
            return claimed
        fresh_drops = (max(0, request.retries - previous["retries"])
                       + max(0, request.reconnects - previous["reconnects"]))
        if fresh_drops <= 0:
            return claimed
        evidence = 1.0 / (1.0 + fresh_drops)
        return max(0.01, min(claimed, evidence))

    def _note_refusal(self, state: LicenseShardState) -> None:
        """Count one EXHAUSTED answer (caller holds ``state.lock``)."""
        state.exhausted += 1
        with self._counters_lock:
            self.exhausted_served += 1

    @staticmethod
    def _admission_cap(available: int, concurrency_ewma: float,
                       total: int) -> int:
        """Pressure-scaled grant ceiling (admission ladder upper rungs).

        Above half the pool free, Algorithm 1's own sizing mostly
        stands — but no single node ever receives more than half of
        what remains, so one early arrival with a flaky-network boost
        cannot legally drain a fresh pool and starve the entire crowd
        behind it.  As pressure mounts the cap divides what is left by
        a multiple of the measured concurrency, so the pool drains in
        O(C·log) fair slices instead of a few early winners taking
        everything.
        """
        if total <= 0 or available >= total * 0.5:
            return max(1, available // 2)
        crowd = max(1, int(concurrency_ewma + 0.999))
        if available >= total * 0.25:
            return max(1, available // (2 * crowd))
        return max(1, available // (4 * crowd))

    @staticmethod
    def _admission_floor(available: int, concurrency_ewma: float) -> int:
        """Smallest honest grant when Algorithm 1 proposes zero.

        One C-fair sliver of the remaining pool (at least one unit while
        any remain) — graceful degradation instead of EXHAUSTED.
        """
        if available <= 0:
            return 0
        crowd = max(1, int(concurrency_ewma + 0.999))
        return max(1, available // (8 * crowd))

    # ------------------------------------------------------------------
    # Renewal health + auto-tuner
    # ------------------------------------------------------------------
    def renewal_health(self) -> Dict[str, Any]:
        """Per-license renewal-health report for ``_server_stats``.

        Surfaces what the global ``exhausted_served`` counter hides:
        which licenses are refusing, how hard the admission ladder is
        degrading grants, the measured concurrency C, and the grant-size
        histogram (keys are the log2 bucket's lower bound).
        """
        licenses: Dict[str, Any] = {}
        for license_id in self.license_ids():
            try:
                state = self.license_state(license_id)
            except LicenseUnknown:
                continue
            with state.lock:
                licenses[license_id] = {
                    "grants": state.grants,
                    "exhausted": state.exhausted,
                    "degraded": state.degraded,
                    "concurrency_ewma": round(state.concurrency_ewma, 3),
                    # O(1) from the ledger's running aggregates — the
                    # report stays bounded at any holder count.
                    "holders": state.ledger.holder_count,
                    "expected_loss": round(state.ledger.expected_loss(), 3),
                    "grant_hist": {
                        str(1 << max(0, bucket - 1)): count
                        for bucket, count in sorted(state.grant_hist.items())
                    },
                }
        with self._counters_lock:
            exhausted = self.exhausted_served
            degraded = self.degraded_served
        return {
            "admission": self.admission,
            "autotune_lag": self.autotune_lag,
            "tau_fraction": self.policy.tau_fraction,
            "exhausted_served": exhausted,
            "degraded_served": degraded,
            "autotune": {
                "widened": self.autotune_widened,
                "narrowed": self.autotune_narrowed,
            },
            "licenses": licenses,
        }

    def _maybe_autotune(self) -> None:
        """Close the outer loop: refusals vs forfeitures steer τ and the
        replication lag budget.

        Every :data:`AUTOTUNE_INTERVAL` renewals, compare how many
        renewals were refused (EXHAUSTED) against how many units were
        forfeited (crash write-offs) since the last look.  More refusals
        than forfeits means the server is being too timid — widen τ and
        the lag budget so grants flow; more forfeits means crashes are
        burning the pool — narrow both so less is at risk per crash.
        """
        if not self.autotune_lag:
            return
        with self._counters_lock:
            renewals = self.renewals_served
            exhausted = self.exhausted_served
        with self._autotune_lock:
            if renewals - self._autotune_last_renewals < AUTOTUNE_INTERVAL:
                return
            lost = self._total_lost_units()
            refusals = exhausted - self._autotune_last_exhausted
            forfeits = lost - self._autotune_last_lost
            self._autotune_last_renewals = renewals
            self._autotune_last_exhausted = exhausted
            self._autotune_last_lost = lost
            if refusals > forfeits:
                self._autotune_step(widen=True)
            elif forfeits > refusals:
                self._autotune_step(widen=False)

    def _total_lost_units(self) -> int:
        total = 0
        for license_id in self.license_ids():
            try:
                state = self.license_state(license_id)
            except LicenseUnknown:
                continue
            with state.lock:
                total += state.ledger.lost_units
        return total

    def _autotune_step(self, widen: bool) -> None:
        """One tuner move (caller holds ``_autotune_lock``)."""
        factor = 2.0 if widen else 0.5
        if self.lag_budget_control is not None:
            self.lag_budget_control(factor)
        tau = self.policy.tau_fraction
        new_tau = (min(AUTOTUNE_TAU_MAX, tau * 1.25) if widen
                   else max(AUTOTUNE_TAU_MIN, tau / 1.25))
        if new_tau != tau:
            # RenewalPolicy is frozen: swap in a re-parameterized copy.
            self.policy = replace(self.policy, tau_fraction=new_tau)
        if widen:
            self.autotune_widened += 1
        else:
            self.autotune_narrowed += 1

    def _blob_valid(self, definition: LicenseDefinition, blob: bytes) -> bool:
        return blob == definition.license_blob()

    @staticmethod
    def _node_key(slid: int) -> str:
        return f"slid:{slid}"


# ----------------------------------------------------------------------
# Wire forms of the server-side records (migration + replication reuse
# these; they are JSON-plain, like every protocol message field dict)
# ----------------------------------------------------------------------
def definition_to_wire(definition: LicenseDefinition) -> Dict[str, Any]:
    return {
        "license_id": definition.license_id,
        "kind": definition.kind.value,
        "total_units": definition.total_units,
        "tick_seconds": definition.tick_seconds,
        "secret": definition.secret.hex(),
        "revoked": definition.revoked,
    }


def definition_from_wire(fields: Dict[str, Any]) -> LicenseDefinition:
    return LicenseDefinition(
        license_id=fields["license_id"],
        kind=LeaseKind(fields["kind"]),
        total_units=fields["total_units"],
        tick_seconds=fields["tick_seconds"],
        secret=bytes.fromhex(fields["secret"]),
        revoked=fields["revoked"],
    )


def ledger_to_wire(ledger: LicenseLedger) -> Dict[str, Any]:
    return {
        "license_id": ledger.license_id,
        "total_gcl": ledger.total_gcl,
        "beta": ledger.beta,
        "outstanding": {key: units
                        for key, units in ledger.outstanding.items()},
        "lost_units": ledger.lost_units,
        "node_conditions": {
            key: {
                "weight": condition.weight,
                "network_reliability": condition.network_reliability,
                "health": condition.health,
            }
            for key, condition in ledger.node_conditions.items()
        },
    }


def ledger_summary(ledger: LicenseLedger, top_k: int = 8) -> Dict[str, Any]:
    """Bounded introspection view of one ledger.

    The full wire form (:func:`ledger_to_wire`) ships the complete
    ``outstanding`` and ``node_conditions`` maps — O(C) bytes, which at
    10^5 holders is a multi-megabyte stats answer.  This summary is
    bounded regardless of holder count: running aggregates, the top-k
    largest holders, and a log2 histogram of holding sizes (at most 64
    buckets).  Computing it is one O(C) pass, but only on explicit
    probe request — never on the renew path.
    """
    holdings = [(units, node_id)
                for node_id, units in ledger.outstanding.items()
                if units > 0]
    holdings.sort(reverse=True)
    histogram: Dict[str, int] = {}
    for units, _ in holdings:
        bucket = str(1 << max(0, units.bit_length() - 1))
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return {
        "holders": ledger.holder_count,
        "outstanding": ledger.outstanding_total,
        "lost": ledger.lost_units,
        "available": ledger.available,
        "expected_loss": ledger.expected_loss(),
        "weight_sum": ledger.weight_sum,
        "beta": ledger.beta,
        "conditions_remembered": len(ledger.node_conditions),
        "top_holders": [
            {"node": node_id, "units": units,
             "expected_loss": ledger.node_expected_loss(node_id)}
            for units, node_id in holdings[:max(0, top_k)]
        ],
        "holding_hist": dict(sorted(histogram.items(),
                                    key=lambda item: int(item[0]))),
    }


def ledger_from_wire(fields: Dict[str, Any]) -> LicenseLedger:
    return LicenseLedger(
        license_id=fields["license_id"],
        total_gcl=fields["total_gcl"],
        beta=fields["beta"],
        outstanding=dict(fields["outstanding"]),
        lost_units=fields["lost_units"],
        node_conditions={
            key: NodeCondition(node_id=key, **condition)
            for key, condition in fields["node_conditions"].items()
        },
    )
