"""Typed fleet introspection: the ``_server_stats`` report as data.

Three ad-hoc dict shapes used to describe a running server — the
``_server_stats`` envelope, the per-license renewal-health report from
:meth:`repro.core.sl_remote.SlRemote.renewal_health`, and the quorum
control plane's :meth:`~repro.net.replication.ReplicationManager.health`
— each consumed by greps into nested dicts.  This module gives them one
typed surface:

* :class:`RenewalHealth` — the admission ladder / auto-tuner view, with
  bounded per-license entries (running-aggregate holder counts and
  expected loss, log2 grant histogram);
* :class:`ReplicationHealth` — epoch, quorum, per-peer ack lag and the
  shipping counters;
* :class:`ServerStats` — the full probe envelope, embedding the two
  above (per shard, when the probed server fronts a sharded fleet).

``to_wire`` reproduces the exact dict shapes the ad-hoc reports always
had, so every existing dict consumer keeps working; ``from_wire``
accepts both the single-remote and the ``{shard: report}`` sharded
shapes.  All three types are registered with the codec so the v3 binary
wire has field tables for them.

What both socket servers share (:class:`WireStats`, the probe builders,
:func:`overload_frame`) lives here too, so neither imports the other.

Every report is bounded-size by construction: nothing here ever ships a
full ``outstanding``/``node_conditions`` map (see
:func:`repro.core.sl_remote.ledger_summary` for the bounded ledger view
and the ``detail="full"`` probe opt-in for the O(C) dump).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.net import codec
from repro.net.transport import HandlerTable
from repro.sgx.driver import SgxStats
from repro.sim.clock import Clock


@dataclass(frozen=True)
class RenewalHealth:
    """One remote's renewal-health report (``renewal_health()`` shape).

    ``licenses`` maps license id to the bounded per-license entry:
    ``grants`` / ``exhausted`` / ``degraded`` counters, the concurrency
    EWMA, the O(1) ``holders`` and ``expected_loss`` aggregates, and the
    log2 ``grant_hist``.
    """

    admission: bool = True
    autotune_lag: bool = False
    tau_fraction: float = 0.0
    exhausted_served: int = 0
    degraded_served: int = 0
    autotune_widened: int = 0
    autotune_narrowed: int = 0
    licenses: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "admission": self.admission,
            "autotune_lag": self.autotune_lag,
            "tau_fraction": self.tau_fraction,
            "exhausted_served": self.exhausted_served,
            "degraded_served": self.degraded_served,
            "autotune": {
                "widened": self.autotune_widened,
                "narrowed": self.autotune_narrowed,
            },
            "licenses": {license_id: dict(entry)
                         for license_id, entry in self.licenses.items()},
        }

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "RenewalHealth":
        autotune = fields.get("autotune") or {}
        return cls(
            admission=bool(fields.get("admission", True)),
            autotune_lag=bool(fields.get("autotune_lag", False)),
            tau_fraction=float(fields.get("tau_fraction", 0.0)),
            exhausted_served=int(fields.get("exhausted_served", 0)),
            degraded_served=int(fields.get("degraded_served", 0)),
            autotune_widened=int(autotune.get("widened", 0)),
            autotune_narrowed=int(autotune.get("narrowed", 0)),
            licenses={license_id: dict(entry)
                      for license_id, entry
                      in (fields.get("licenses") or {}).items()},
        )


@dataclass(frozen=True)
class ReplicationHealth:
    """One shard's quorum control-plane health (``health()`` shape).

    ``replicates`` is absent (``None``) on a pure follower; ``follows``
    carries the delta/snapshot/bootstrap apply counters.  Both stay
    plain (bounded) dicts on the wire: the per-peer map has at most
    ``replicas`` entries.
    """

    epoch: int = 0
    quorum: int = 0
    quorum_timeouts: int = 0
    promoted: tuple = ()
    follows: Dict[str, Any] = field(default_factory=dict)
    replicates: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {
            "epoch": self.epoch,
            "quorum": self.quorum,
            "quorum_timeouts": self.quorum_timeouts,
            "promoted": list(self.promoted),
            "follows": dict(self.follows),
        }
        if self.replicates is not None:
            report["replicates"] = dict(self.replicates)
        return report

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "ReplicationHealth":
        replicates = fields.get("replicates")
        return cls(
            epoch=int(fields.get("epoch", 0)),
            quorum=int(fields.get("quorum", 0)),
            quorum_timeouts=int(fields.get("quorum_timeouts", 0)),
            promoted=tuple(fields.get("promoted") or ()),
            follows=dict(fields.get("follows") or {}),
            replicates=dict(replicates) if replicates is not None else None,
        )


#: A section that is one report for a plain remote, or ``{shard:
#: report}`` when the probed server fronts a sharded fleet in-process.
RenewalSection = Union[RenewalHealth, Dict[str, RenewalHealth]]
ReplicationSection = Union[ReplicationHealth, Dict[str, ReplicationHealth]]


def sniff_renewal(fields: Dict[str, Any]) -> RenewalSection:
    """Lift a renewal section from either historical dict shape."""
    # The single-remote shape always carries "licenses"; the sharded
    # shape is {shard_name: single-remote shape}.
    if "licenses" in fields:
        return RenewalHealth.from_wire(fields)
    return {shard: RenewalHealth.from_wire(entry)
            for shard, entry in fields.items()}


def sniff_replication(fields: Dict[str, Any]) -> ReplicationSection:
    """Lift a replication section from either historical dict shape."""
    if "follows" in fields or "epoch" in fields:
        return ReplicationHealth.from_wire(fields)
    return {shard: ReplicationHealth.from_wire(entry)
            for shard, entry in fields.items()}


def _section_to_wire(section) -> Dict[str, Any]:
    if isinstance(section, dict):
        return {shard: entry.to_wire() for shard, entry in section.items()}
    return section.to_wire()


@dataclass(frozen=True)
class ServerStats:
    """The full ``_server_stats`` probe envelope, typed.

    ``wire`` is the codec counter snapshot (absent on loopback servers);
    ``renewal``/``replication`` are the typed sections above, or a
    ``{shard: section}`` map when one server process fronts a sharded
    fleet.
    """

    io: str = "async"
    requests_served: int = 0
    errors_returned: int = 0
    connections_accepted: int = 0
    connections_shed: int = 0
    resident_threads: int = 0
    wire: Optional[Dict[str, Any]] = None
    exhausted_served: Optional[int] = None
    renewal: Optional[RenewalSection] = None
    replication: Optional[ReplicationSection] = None

    def to_wire(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {
            "io": self.io,
            "requests_served": self.requests_served,
            "errors_returned": self.errors_returned,
            "connections_accepted": self.connections_accepted,
            "connections_shed": self.connections_shed,
            "resident_threads": self.resident_threads,
        }
        if self.wire is not None:
            report["wire"] = dict(self.wire)
        if self.exhausted_served is not None:
            report["exhausted_served"] = self.exhausted_served
        if self.renewal is not None:
            report["renewal"] = _section_to_wire(self.renewal)
        if self.replication is not None:
            report["replication"] = _section_to_wire(self.replication)
        return report

    @classmethod
    def from_wire(cls, fields: Dict[str, Any]) -> "ServerStats":
        wire = fields.get("wire")
        renewal = fields.get("renewal")
        replication = fields.get("replication")
        exhausted = fields.get("exhausted_served")
        return cls(
            io=str(fields.get("io", "async")),
            requests_served=int(fields.get("requests_served", 0)),
            errors_returned=int(fields.get("errors_returned", 0)),
            connections_accepted=int(fields.get("connections_accepted", 0)),
            connections_shed=int(fields.get("connections_shed", 0)),
            resident_threads=int(fields.get("resident_threads", 0)),
            wire=dict(wire) if wire is not None else None,
            exhausted_served=int(exhausted) if exhausted is not None else None,
            renewal=sniff_renewal(renewal) if renewal else None,
            replication=(sniff_replication(replication)
                         if replication else None),
        )

    # -- shape helpers ------------------------------------------------
    def renewal_by_shard(self) -> Dict[str, RenewalHealth]:
        """The renewal section as ``{shard: report}`` regardless of
        whether the probed server was sharded (single remotes appear
        under the shard name ``""``)."""
        if self.renewal is None:
            return {}
        if isinstance(self.renewal, dict):
            return dict(self.renewal)
        return {"": self.renewal}

    def replication_by_shard(self) -> Dict[str, ReplicationHealth]:
        if self.replication is None:
            return {}
        if isinstance(self.replication, dict):
            return dict(self.replication)
        return {"": self.replication}


#: Error-envelope text prefix for capacity shedding.  A server over its
#: ``max_connections`` cap answers a fresh connection with exactly one
#: error envelope built from this prefix and closes; clients see it as a
#: typed :class:`~repro.net.codec.RemoteCallError` (never retried — the
#: far side *answered*) and the envelope metadata carries
#: ``{"overloaded": true}`` for programmatic handling.
OVERLOAD_ERROR = "ServerOverloaded"


def overload_frame() -> bytes:
    """The one-frame brush-off sent to a connection over the cap."""
    return codec.frame(codec.encode_error(
        f"{OVERLOAD_ERROR}: connection shed, server at max_connections",
        0, meta={"overloaded": True},
    ))


class WireStats:
    """Codec/transport counters shared by both server IO backends.

    Everything a benchmark needs to report honestly: actual bytes and
    frames through the codec, and how renewals coalesce into batches.
    All updates take one lock — these counters feed published numbers,
    so concurrent connections must not undercount them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_decoded = 0
        self.bytes_encoded = 0
        self.frames_decoded = 0
        self.frames_encoded = 0
        self.batch_frames = 0
        self.batched_renewals = 0
        self.largest_batch = 0
        #: Frames that failed to decode (bad length prefix, checksum
        #: mismatch, garbage envelope).  Tampered traffic must be
        #: *observable*: every rejection is counted here in addition to
        #: the typed error envelope (or connection close) it earns.
        self.frames_rejected = 0

    def note_decoded(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_decoded += nbytes
            self.frames_decoded += 1

    def note_encoded(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_encoded += nbytes
            self.frames_encoded += 1

    def note_batch(self, size: int) -> None:
        with self._lock:
            self.batch_frames += 1
            self.batched_renewals += size
            self.largest_batch = max(self.largest_batch, size)

    def note_rejected(self) -> None:
        with self._lock:
            self.frames_rejected += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "bytes_decoded": self.bytes_decoded,
                "bytes_encoded": self.bytes_encoded,
                "frames_decoded": self.frames_decoded,
                "frames_encoded": self.frames_encoded,
                "batch_frames": self.batch_frames,
                "batched_renewals": self.batched_renewals,
                "largest_batch": self.largest_batch,
                "frames_rejected": self.frames_rejected,
            }


def attach_server_stats(handlers: HandlerTable, server) -> None:
    """Register the ``_server_stats`` introspection method on a server.

    Benchmarks and operators probe it over the wire for the serving
    counters — ``resident_threads`` among them, which idle connections
    must not inflate — and the codec counters that price each renewal
    in actual bytes.  When the served remote
    replicates, the report carries the quorum control plane's health:
    per-peer ack lag, the current promotion epoch, the configured
    quorum, and the EXHAUSTED-response counter the adaptive-renewal
    loop watches for backpressure.
    """
    def _server_stats(_request, clock: Optional[Clock] = None,
                      stats: Optional[SgxStats] = None):
        return build_server_stats(server).to_wire()

    handlers.register("_server_stats", _server_stats)


def build_server_stats(server) -> ServerStats:
    """Assemble the typed :class:`ServerStats` report.

    The sections come back from the served remote as the historical
    dict shapes (a plain remote's report, or ``{shard: report}`` for an
    in-process sharded fleet); they are lifted into the typed sections
    here, and ``to_wire`` reproduces the exact dicts old consumers
    expect.
    """
    wire_stats = getattr(server, "wire_stats", None)
    remote = getattr(server, "remote", None)
    exhausted = getattr(remote, "exhausted_served", None)
    renewal = None
    renewal_health = getattr(remote, "renewal_health", None)
    if callable(renewal_health):
        try:
            renewal = sniff_renewal(renewal_health())
        except Exception:  # noqa: BLE001 - stats must never fail a probe
            pass
    replication = None
    health = getattr(server, "replication_health", None)
    if health is None:
        health = getattr(remote, "replication_health", None)
    if callable(health):
        try:
            replication = sniff_replication(health())
        except Exception:  # noqa: BLE001 - stats must never fail a probe
            pass
    return ServerStats(
        requests_served=server.requests_served,
        errors_returned=server.errors_returned,
        connections_accepted=server.connections_accepted,
        connections_shed=server.connections_shed,
        resident_threads=threading.active_count(),
        wire=wire_stats.snapshot() if wire_stats is not None else None,
        exhausted_served=exhausted,
        renewal=renewal,
        replication=replication,
    )


def format_stats(address: str, stats: ServerStats) -> str:
    """Human-readable rendering for the ``repro stats`` CLI verb."""
    lines = [f"{address}  [{stats.io}]"]
    lines.append(
        f"  requests={stats.requests_served}"
        f" errors={stats.errors_returned}"
        f" accepted={stats.connections_accepted}"
        f" shed={stats.connections_shed}"
        f" threads={stats.resident_threads}"
    )
    if stats.wire:
        wire = stats.wire
        lines.append(
            f"  wire: frames={wire.get('frames_decoded', 0)}/"
            f"{wire.get('frames_encoded', 0)} in/out"
            f" bytes={wire.get('bytes_decoded', 0)}/"
            f"{wire.get('bytes_encoded', 0)}"
            f" batched_renewals={wire.get('batched_renewals', 0)}"
            f" largest_batch={wire.get('largest_batch', 0)}"
        )
    for shard, renewal in sorted(stats.renewal_by_shard().items()):
        label = f" [{shard}]" if shard else ""
        lines.append(
            f"  renewal{label}: admission={'on' if renewal.admission else 'off'}"
            f" tau={renewal.tau_fraction:.3f}"
            f" exhausted={renewal.exhausted_served}"
            f" degraded={renewal.degraded_served}"
            f" autotune=+{renewal.autotune_widened}/-{renewal.autotune_narrowed}"
        )
        for license_id, entry in sorted(renewal.licenses.items()):
            lines.append(
                f"    {license_id}: grants={entry.get('grants', 0)}"
                f" exhausted={entry.get('exhausted', 0)}"
                f" degraded={entry.get('degraded', 0)}"
                f" holders={entry.get('holders', 0)}"
                f" E[loss]={entry.get('expected_loss', 0.0)}"
                f" C~{entry.get('concurrency_ewma', 0.0)}"
            )
    for shard, replication in sorted(stats.replication_by_shard().items()):
        label = f" [{shard}]" if shard else ""
        follows = replication.follows
        lines.append(
            f"  replication{label}: epoch={replication.epoch}"
            f" quorum={replication.quorum}"
            f" timeouts={replication.quorum_timeouts}"
            f" promoted={list(replication.promoted) or '[]'}"
            f" applied={follows.get('deltas_applied', 0)}"
        )
        if replication.replicates:
            replicates = replication.replicates
            peers = replicates.get("peers") or {}
            lag = {peer: entry.get("ack_lag", 0)
                   for peer, entry in sorted(peers.items())}
            lines.append(
                f"    replicates: seq={replicates.get('seq', 0)}"
                f" identity_seq={replicates.get('identity_seq', 0)}"
                f" batches={replicates.get('batches_sent', 0)}"
                f" ack_lag={lag}"
            )
    return "\n".join(lines)


for _message in (RenewalHealth, ReplicationHealth, ServerStats):
    codec.register_message_type(_message)
