"""Printing: one workload's metrics, and the two-round repeatability check."""

from __future__ import annotations

from typing import Dict, Tuple

#: ISSUE 11 named the end-to-end metrics per workload; the driver's
#: contract wants every workload to report the same names.  This maps
#: (workload, contract name) to the name the issue used.
ISSUE_NAMES = {
    "renew_mem": {"ops_per_s": "renewals_per_s", "op_p50_ms": "renew_p50_ms",
                  "op_p95_ms": "renew_p95_ms"},
    "renew_durable": {"ops_per_s": "renewals_per_s",
                      "op_p50_ms": "renew_p50_ms",
                      "op_p95_ms": "renew_p95_ms"},
    "batch_durable": {"ops_per_s": "renewals_per_s",
                      "op_p50_ms": "batch_p50_ms",
                      "op_p95_ms": "batch_p95_ms"},
    "recover": {"op_p50_ms": "recovery_s (x1000)"},
    "enroll_quorum": {"ops_per_s": "enrolls_per_s",
                      "op_p50_ms": "enroll_p50_ms",
                      "op_p95_ms": "enroll_p95_ms"},
    "paced_fleet": {"op_p50_ms": "paced_p50_ms", "op_p95_ms": "paced_p95_ms"},
}
_RENEWING = ("renew_mem", "renew_durable", "batch_durable", "paced_fleet")
for _name in _RENEWING:
    ISSUE_NAMES[_name]["server_cpu_ms_per_op"] = "server_cpu_ms_per_renewal"


def table(record: dict) -> str:
    """Every metric of one run by name, value and unit."""
    workload = record["workload"]
    aliases = ISSUE_NAMES.get(workload, {})
    lines = []
    for name, entry in record["metrics"].items():
        if record["traced"] and entry["value"] == 0:
            continue  # a layer this workload does not touch
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        lines.append(f"  {workload:14s} {name:42s} "
                     f"{entry['value']:14.4f} {entry['unit']}{alias}")
    info = record["info"]
    if not record["traced"]:
        lines.append(
            f"  {workload:14s} failed_share {info['failed_share']:.4f} "
            f"({record['failed']}/{record['attempted']})   "
            f"op = {info['op']}")
        lines.append(
            f"  {workload:14s} as the clock read it, nothing scaled "
            f"(information only): {info['window_ops_per_s']:.1f} ops/s, p50 "
            f"{info['window_p50_ms']:.3f} ms, p95 {info['window_p95_ms']:.3f} "
            f"ms, p99 {info['window_p99_ms']:.3f} ms over "
            f"{info['latency_samples']} samples")
    for key in ("calm_share", "wal_bytes_per_cycle", "driver_late_p95_ms",
                "driver_late_p99_ms",
                "send_late_p99_ms",
                "trace_overhead_us_per_cycle", "walk_accounted_share"):
        if key in info:
            lines.append(f"  {workload:14s} {key} = {info[key]:.4f}")
    return "\n".join(lines)


def compare(first: Dict[str, dict], second: Dict[str, dict],
            spec: dict) -> Tuple[str, bool]:
    """Two rounds of the same commit, metric by metric against the
    bound BENCHMARK.json fixes for it."""
    lines = [f"  {'workload':14s} {'metric':22s} {'run 1':>12s} "
             f"{'run 2':>12s} {'diff':>8s} {'bound':>6s}"]
    passed = True
    for workload, record in first.items():
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = record["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            ok = worse <= entry["bound"]
            passed = passed and ok
            lines.append(
                f"  {workload:14s} {name:22s} {a:12.4f} {b:12.4f} "
                f"{worse:+8.1%} {entry['bound']:6.0%} "
                f"{'PASS' if ok else 'FAIL'}")
        a = record["info"]["failed_share"]
        b = second[workload]["info"]["failed_share"]
        ok = b - a <= 0.001
        passed = passed and ok
        lines.append(f"  {workload:14s} {'failed_share':22s} {a:12.4f} "
                     f"{b:12.4f} {b - a:+8.4f} {'+.001':>6s} "
                     f"{'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), passed
