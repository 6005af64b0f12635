"""The lease-fleet benchmark: one command, every metric by name and unit.

    python3 bench/run.py                          # all six workloads
    python3 bench/run.py --workload renew_mem     # one, while iterating
    python3 bench/run.py --traced                 # per-layer metrics
    python3 bench/run.py --repeat 2 --check       # repeatability gate

The driver's form is ``--workload W --seed N --seconds S --trace 0|1``;
the last line of standard output is then one JSON object.  Servers run
at ``ledger_commit_seconds`` = 0.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

sys.path.insert(0, harness.SRC)

import report  # noqa: E402
from harness import BenchError, Sandbox  # noqa: E402
from load import SpeedProbe, median, percentile  # noqa: E402
from walk import run_traced  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Seed behind the numbers recorded in README.md.  A later gain must
#: also be shown on the hold-out seed 20221107.
RECORDED_SEED = 20220711

#: Set-up is repeated (and its median reported) while it is cheap.
SETUP_REPEATS = 3
SETUP_BUDGET_SECONDS = 4.0


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    """One end-to-end run: set up, measure, audit, tear down."""
    probe = SpeedProbe()
    with Sandbox() as sandbox:
        setups = []
        with probe.in_background():
            while True:
                start = time.perf_counter()
                stage = workload.setup(sandbox, seed)
                setups.append((start, time.perf_counter()))
                spent = sum(end - start for start, end in setups)
                if (len(setups) >= SETUP_REPEATS
                        or spent + spent / len(setups) > SETUP_BUDGET_SECONDS):
                    break
                stage.close(sandbox)
        measured = workload.measure(sandbox, stage, seed, seconds, probe)
        wire = workload.audit(stage)
        if stage.server in sandbox.servers:
            stage.close(sandbox)
    # Set-up time as it would have read with the vCPU at full speed
    # throughout (load.Timeline).
    timeline = probe.timeline()
    full_speed = [timeline.full_speed(start, end) for start, end in setups]
    tally = measured.tally
    if not tally.latencies:
        raise BenchError(f"no operation succeeded: {tally.notes}")
    latencies = tally.latencies
    metrics = {"setup_s": (median(full_speed), "s")}
    for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                       ("op_p95_ms", "ms"), ("server_cpu_ms_per_op", "ms"),
                       ("server_rss_mb", "MB")):
        metrics[name] = (measured.values[name], unit)
    info = {
        "op": workload.op,
        "failed_share": tally.failed / tally.attempted,
        # The whole window as the clock read it, nothing scaled:
        # information only.
        "window_ops_per_s": tally.ok_ops / measured.window_seconds,
        "window_p50_ms": median(latencies) * 1e3,
        "window_p95_ms": percentile(latencies, 0.95) * 1e3,
        "window_p99_ms": percentile(latencies, 0.99) * 1e3,
        "latency_samples": len(latencies),
        "ok_ops": tally.ok_ops,
        "window_seconds": measured.window_seconds,
        "setup_seconds": [end - start for start, end in setups],
        "setup_seconds_full_speed": full_speed,
        "probe_floor_ms": probe.floor() * 1e3,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "frames_rejected": wire.get("frames_rejected", 0),
        "failure_notes": tally.notes,
    }
    info.update(measured.info)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "info": info}


def environment(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "seed": seed, "run_seconds": seconds}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and write its record under ``.bench_out/``."""
    workload = WORKLOADS[name]
    runner = run_traced if traced else run_untraced
    result = runner(workload, seed, seconds)
    record = dict(environment(seed, seconds), workload=name, traced=traced,
                  attempted=result["attempted"], failed=result["failed"],
                  metrics={key: {"value": value, "unit": unit}
                           for key, (value, unit) in result["metrics"].items()},
                  info=result["info"])
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(
        harness.OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def driver_line(record: dict) -> str:
    """The contract's result line: exactly these four keys."""
    return json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat 2: PASS/FAIL each metric's "
                             "difference against its bound")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = ([args.workload] if args.workload
             else [entry["name"] for entry in spec["workloads"]])
    harness.raise_on_sigterm()
    harness.pin_to_one_cpu()

    rounds = []
    for _ in range(args.repeat):
        records = {}
        for name in names:
            print(f"# {name}: {WORKLOADS[name].why}", flush=True)
            records[name] = run_one(name, args.seed, seconds, traced)
            print(report.table(records[name]), flush=True)
        rounds.append(records)
    if args.check:
        if len(rounds) != 2 or traced:
            raise SystemExit("--check compares two untraced rounds: "
                             "use --repeat 2 without --traced")
        text, passed = report.compare(rounds[0], rounds[1], spec)
        print(text, flush=True)
        if not passed:
            return 1
    if args.workload:
        print(driver_line(rounds[-1][args.workload]), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        # An invalid run prints no numbers.
        print(f"benchmark invalid: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        sys.exit(130)
