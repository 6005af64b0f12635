"""Guard the committed benchmark baselines against silent regressions.

The repo commits full-scale benchmark results (``BENCH_failover.json``,
``BENCH_quorum.json``, ``BENCH_scenarios.json``) as the performance
record of each release.  This script compares the working-tree copies
against the versions committed at a git ref (default ``HEAD``) and
fails when a headline metric regressed past the tolerance:

* latency-like metrics ("lower is better") may not grow by more than
  ``--tolerance`` (default 20%),
* throughput-like metrics ("higher is better") may not shrink by more
  than the same factor,
* correctness counters ("must be zero") may not be nonzero, ever.

Smoke-scale reruns are not comparable to full-scale baselines, so a
file whose ``smoke`` flag differs from its baseline is reported and
skipped rather than failed.  A smoke run writes its copy under the
gitignored ``.bench_out/``, never over the committed file, and that
copy is the one checked when it exists.

Usage::

    python benchmarks/compare_baselines.py [--ref HEAD] [--tolerance 0.2]

Exit status 0 means every comparable metric is within tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: file -> list of (dotted metric path, direction).  Directions:
#: ``lower``/``higher`` compare against the baseline with tolerance,
#: ``zero`` is an absolute correctness gate on the current run.
BASELINES = {
    "BENCH_failover.json": [
        ("kill_to_first_success_seconds", "lower"),
        ("failed_calls", "zero"),
    ],
    "BENCH_quorum.json": [
        ("kill_to_first_success_seconds", "lower"),
        ("failed_calls", "zero"),
        ("double_grants", "zero"),
    ],
    "BENCH_scenarios.json": [
        # The adaptive fleet must serve the whole flash crowd: a single
        # EXHAUSTED answer is a correctness regression of the admission
        # ladder, not a perf wobble.
        ("flash_crowd.adaptive.exhausted", "zero"),
        ("flash_crowd.adaptive.failures", "zero"),
        ("flash_crowd.adaptive.goodput_renewals_per_second", "higher"),
        ("flash_crowd.adaptive.p99_ms", "lower"),
        ("mass_churn.failures", "zero"),
        # New shapes: diurnal peaks are served in full, and the escrow
        # storm's graceful path never strands a unit (a nonzero forfeit
        # here means a double-grant or a bogus write-off).
        ("diurnal.exhausted", "zero"),
        ("diurnal.failures", "zero"),
        ("escrow_storm.failures", "zero"),
        ("escrow_storm.forfeited_units", "zero"),
        # The 10^5 headline: zero refusals at 10× the PR 8 crowd, and
        # its throughput/latency become the standing perf record.
        ("fleet_100k.exhausted", "zero"),
        ("fleet_100k.failures", "zero"),
        ("fleet_100k.goodput_renewals_per_second", "higher"),
        ("fleet_100k.p99_ms", "lower"),
    ],
    "BENCH_redteam.json": [
        # The adversarial audit: all three red-team gates are absolute.
        # A nonzero here means a campaign breached an execution-control
        # invariant — units minted twice across a failover, a rolled-
        # back ledger served, or a fenced server honoring replayed
        # frames.  There is no tolerance to negotiate.
        ("double_grants", "zero"),
        ("resurrected_units", "zero"),
        ("stale_frames_accepted", "zero"),
        ("conservation_violations", "zero"),
        ("failed_calls", "zero"),
    ],
}


def _metric(payload, path):
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _committed(ref, name):
    """The baseline JSON at ``ref``, or None if the file is new."""
    result = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def compare(ref="HEAD", tolerance=0.2):
    failures, report = [], []
    for name, metrics in BASELINES.items():
        current_path = os.path.join(REPO_ROOT, ".bench_out", name)
        if not os.path.exists(current_path):
            current_path = os.path.join(REPO_ROOT, name)
        if not os.path.exists(current_path):
            report.append(f"{name}: missing from the working tree (skipped)")
            continue
        with open(current_path) as handle:
            current = json.load(handle)
        baseline = _committed(ref, name)
        if baseline is None:
            report.append(f"{name}: no baseline at {ref} (new benchmark)")
            baseline = {}
        comparable = (bool(current.get("smoke"))
                      == bool(baseline.get("smoke"))) if baseline else False
        if baseline and not comparable:
            report.append(
                f"{name}: scale mismatch (current smoke="
                f"{bool(current.get('smoke'))}, baseline smoke="
                f"{bool(baseline.get('smoke'))}); only zero-gates checked"
            )
        for path, direction in metrics:
            value = _metric(current, path)
            if value is None:
                failures.append(f"{name}:{path} missing from the current run")
                continue
            if direction == "zero":
                status = "ok" if value == 0 else "FAIL"
                report.append(f"{name}:{path} = {value} (must be 0) {status}")
                if value != 0:
                    failures.append(f"{name}:{path} = {value}, expected 0")
                continue
            base = _metric(baseline, path) if comparable else None
            if base in (None, 0):
                report.append(f"{name}:{path} = {value} (no baseline)")
                continue
            if direction == "lower":
                bound = base * (1 + tolerance)
                bad = value > bound
            else:  # higher
                bound = base * (1 - tolerance)
                bad = value < bound
            status = "FAIL" if bad else "ok"
            report.append(
                f"{name}:{path} = {value} vs baseline {base} "
                f"({direction} is better, bound {bound:.4g}) {status}"
            )
            if bad:
                failures.append(
                    f"{name}:{path} regressed past {tolerance:.0%}: "
                    f"{value} vs baseline {base}"
                )
    return failures, report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare benchmark JSON against committed baselines"
    )
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baselines (default HEAD)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression (default 0.2)")
    args = parser.parse_args(argv)
    failures, report = compare(ref=args.ref, tolerance=args.tolerance)
    for line in report:
        print(line)
    if failures:
        print(f"\n{len(failures)} regression(s) past "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
