"""Wire messages between SL-Manager, SL-Local, and SL-Remote.

Keeping the protocol explicit (rather than direct method calls) lets
the network layer inject latency and drops, and makes the security
tests precise about what an attacker on the untrusted path can see.

Every message is a frozen dataclass registered with
``repro.net.codec``, which packs its fields in declaration order — so
any transport backend (``repro.net.transport``) can serialize it and
rebuild it on the far side of a real socket.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.sealing import SealedBlob
from repro.sgx.attestation import AttestationReport


class Status(enum.Enum):
    """Outcome codes shared by all responses."""

    OK = "ok"
    INVALID_LICENSE = "invalid_license"
    EXHAUSTED = "exhausted"
    ATTESTATION_FAILED = "attestation_failed"
    UNKNOWN_CLIENT = "unknown_client"
    REVOKED = "revoked"
    #: The license's ledger is mid-migration between shards; retry after
    #: the interval carried by the accompanying :class:`MigratingNotice`.
    MIGRATING = "migrating"


# ----------------------------------------------------------------------
# SL-Local -> SL-Remote
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InitRequest:
    """SL-Local's init() call (Section 5.2.4)."""

    slid: Optional[int]  # None on first initialisation
    report: AttestationReport
    platform_secret: int  # quoted platform identity


@dataclass(frozen=True)
class InitResponse:
    status: Status
    slid: Optional[int] = None
    old_backup_key: Optional[int] = None  # OBK, None on first init


@dataclass(frozen=True)
class RenewRequest:
    """Ask SL-Remote for (more) sub-GCL units for a license.

    ``network_reliability``/``health``/``weight`` are the Algorithm 1
    condition inputs; the trailing telemetry fields carry the *observed*
    evidence behind them — the client transport's measured round-trip
    EWMA and its cumulative retry/reconnect counters — so SL-Remote can
    weigh a claimed reliability against what the connection actually
    did.
    """

    slid: int
    license_id: str
    license_blob: bytes  # the user-supplied license file contents
    network_reliability: float
    health: float
    weight: float = 1.0
    rtt_seconds: float = 0.0  # client-observed round-trip EWMA
    retries: int = 0  # transport messages dropped + retried so far
    reconnects: int = 0  # socket re-dials the client has survived


@dataclass(frozen=True)
class RenewResponse:
    status: Status
    granted_units: int = 0
    lease_kind: str = "count"
    tick_seconds: float = 0.0


@dataclass(frozen=True)
class ShutdownNotice:
    """Graceful shutdown: escrow the root sealing key (Section 5.6)."""

    slid: int
    root_key: int


@dataclass(frozen=True)
class MigratingNotice:
    """Typed retry-after answer for a license whose ledger is in motion.

    Returned (not raised) by any license-scoped handler while the
    license's :class:`~repro.core.sl_remote.LicenseShardState` is frozen
    for an online shard migration, and by the *old* owner after the
    hand-off completes (``new_owner`` then names where the ledger went,
    as ``name`` or ``name=host:port`` so a stale router can re-dial).
    Routers treat it as a bounded retry signal — never an error — so a
    live migration costs clients only ``retry_after_seconds`` waits.
    """

    license_id: str
    retry_after_seconds: float = 0.05
    new_owner: Optional[str] = None
    status: Status = Status.MIGRATING


@dataclass(frozen=True)
class BatchRequest:
    """Several coalesced :class:`RenewRequest` in one frame.

    Client transports gather renewals that arrive within a batching
    window into one of these; SL-Remote answers with a
    :class:`BatchResponse` whose slots line up positionally, and the
    whole batch pays one thread hand-off and (per distinct license) one
    ledger-commit charge instead of N.
    """

    requests: tuple  # of RenewRequest, in submission order


@dataclass(frozen=True)
class BatchResponse:
    """Positional replies to a :class:`BatchRequest`.

    Each slot is a :class:`RenewResponse`, or a :class:`MigratingNotice`
    when that one license was mid-migration — a batch never fails
    wholesale because one member needs a routed retry.
    """

    responses: tuple  # of RenewResponse | MigratingNotice


# ----------------------------------------------------------------------
# SL-Manager -> SL-Local
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttestRequest:
    """A license-check request from an application's SL-Manager."""

    report: AttestationReport
    license_id: str
    license_blob: bytes
    tokens_requested: int = 1


@dataclass(frozen=True)
class AttestResponse:
    status: Status
    token: Optional[object] = None  # ExecutionToken on success
