"""Red-team harness: adversarial campaigns against the live fleet.

The defensive claims this repository accumulates — epoch-fenced
failover, sealed WALs, pessimistic crash forfeiture, freshness
anchors, typed tamper rejection — are only claims until something
actually *attacks* a running fleet over real sockets and loses.  This
package is that something:

* :mod:`~repro.redteam.proxy` — a capture/replay wire proxy: records
  every frame crossing it, tampers traffic in flight through
  a :class:`~repro.testing.faults.NetFaultPlan`, and re-injects
  captured frames at arbitrary servers (replay across failover).

* :mod:`~repro.redteam.fleet` — subprocess fleet under test: spawns
  real ``serve-remote`` processes with replication, durability, and
  freshness anchors; kills, revives, and swaps their data
  directories for stale copies.

* :mod:`~repro.redteam.campaigns` — scripted multi-step adversaries:
  the headline replay-rollback-tamper campaign, deposed-primary
  resurrection, and the crash/coalesced-batch race.

* :mod:`~repro.redteam.audit` — the invariant auditor that decides
  who won: conservation per license, zero double-grants, zero
  resurrected units, zero stale frames accepted, every tampered
  frame mapped to a typed rejection.

Run it: ``python -m repro.cli redteam`` (see the CLI), or through
``benchmarks/test_redteam.py`` which persists ``BENCH_redteam.json``
for CI's zero-gates.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AuditReport": "repro.redteam.audit",
    "InvariantAuditor": "repro.redteam.audit",
    "CapturedFrame": "repro.redteam.proxy",
    "CaptureProxy": "repro.redteam.proxy",
    "inject_frames": "repro.redteam.proxy",
})
