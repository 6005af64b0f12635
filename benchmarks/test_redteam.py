"""Red-team campaign bench: the adversarial zero-gates, persisted.

Runs every campaign in :mod:`repro.redteam.campaigns` against a real
``serve-remote`` fleet — the headline kill chain (capture, SIGKILL,
replay at the promoted successor, tamper, rollback restore), the
deposed-primary resurrection, and the crash-forfeiture-vs-coalesced-
batch race — then persists one merged verdict to
``BENCH_redteam.json``.

Unlike the perf benches, the numbers that matter here are *zeros*:
``double_grants``, ``resurrected_units``, and
``stale_frames_accepted`` are CI-gated at exactly 0 by
``compare_baselines.py``; any other value means an execution-control
invariant broke under attack.

``SL_REDTEAM_SMOKE=1`` shrinks the crowds and chaos windows for CI;
the gates are identical at both scales — a breach in a small campaign
is still a breach.  The JSON is always written (smoke included): a
smoke run writes ``.bench_out/BENCH_redteam.json`` (gitignored, never
over the committed full-scale record), which the CI step uploads as
the run's adversarial audit artifact.
"""

from __future__ import annotations

import json
import os

from repro.redteam.audit import AuditReport
from repro.redteam.campaigns import CAMPAIGN_NAMES, run_campaigns

SMOKE = bool(os.environ.get("SL_REDTEAM_SMOKE"))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(
    REPO_ROOT, ".bench_out" if SMOKE else "", "BENCH_redteam.json")


def test_campaigns_all_defended(tmp_path, benchmark, table_printer):
    """Every campaign must end DEFENDED: all zero-gates at zero,
    conservation intact on every audited license, and every tampered
    frame met with a typed rejection."""

    def measure():
        return run_campaigns(str(tmp_path), smoke=SMOKE)

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert [r.name for r in results] == list(CAMPAIGN_NAMES)

    merged = AuditReport()  # fresh: merge() mutates its receiver
    for result in results:
        merged.merge(result.audit)

    table_printer(
        "Red-team campaigns vs the live fleet"
        + (" [smoke]" if SMOKE else ""),
        ["Campaign", "double_grants", "resurrected", "stale_accepted",
         "tamper rej/sent", "renewals", "client failures"],
        [
            [r.name, r.audit.double_grants, r.audit.resurrected_units,
             r.audit.stale_frames_accepted,
             f"{r.audit.tampered_frames_rejected}"
             f"/{r.audit.tampered_frames_sent}",
             r.audit.renewals_served, r.audit.failed_calls]
            for r in results
        ],
    )

    for result in results:
        audit = result.audit
        assert audit.ok(), (
            f"{result.name} BREACHED: "
            + "; ".join(audit.notes[:5])
        )
        assert audit.tampered_frames_rejected == audit.tampered_frames_sent, \
            (f"{result.name}: {audit.tampered_frames_sent} frames "
             f"tampered but only {audit.tampered_frames_rejected} drew "
             f"a typed rejection")
        assert audit.failed_calls == 0, \
            f"{result.name}: honest clients failed under attack"
    assert merged.renewals_served > 0

    # Always persisted — the zero-gates are this file's whole point and
    # the CI smoke step uploads the smoke copy as its artifact.
    payload = {
        "benchmark": "redteam_campaigns",
        "smoke": SMOKE,
        "campaigns": [
            {"name": r.name, **r.audit.as_dict(),
             "victim": r.details.get("victim")}
            for r in results
        ],
        "double_grants": merged.double_grants,
        "resurrected_units": merged.resurrected_units,
        "stale_frames_accepted": merged.stale_frames_accepted,
        "conservation_violations": merged.conservation_violations,
        "tampered_frames_sent": merged.tampered_frames_sent,
        "tampered_frames_rejected": merged.tampered_frames_rejected,
        "renewals_served": merged.renewals_served,
        "failed_calls": merged.failed_calls,
        "licenses_audited": merged.licenses_audited,
        "ok": merged.ok(),
    }
    os.makedirs(os.path.dirname(BENCH_JSON), exist_ok=True)
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
