"""Flash crowds and mass churn against a real replicated fleet.

The Algorithm 1 control loop's headline claims, measured end to end
over real ``serve-remote`` subprocesses (3 shards, ``--replicas 2``,
async IO, v3 wire):

* **Flash crowd, static vs adaptive.**  The same zipf-popular crowd —
  a trickle, then most arrivals inside a narrow burst — hits two
  identical fleets.  With ``--admission off`` (the static baseline),
  Algorithm 1's geometric decay floors grant proposals to zero once a
  license's holder count passes ``sqrt(TG·D)/D``, so the fleet answers
  EXHAUSTED while the pool still holds most of its units.  With
  admission on (plus ``--autotune-lag``), the server degrades grant
  sizes down the pressure ladder instead: every arrival is served,
  EXHAUSTED stays at zero, and goodput rises.

* **Mass churn, forfeiture bounded.**  A steady crowd where a slice
  crashes mid-hold (re-init without graceful shutdown).  The τ bound of
  Equation 1 caps what any one crash can strand: each forfeiture stays
  under ``τ·TG / (1 − h)`` for the crasher's claimed health ``h``, and
  the client-observed forfeits reconcile exactly with the fleet's
  written-off ``lost`` units.

* **Diurnal curve, valleys recover.**  Arrivals follow a day/night
  cosine with deep troughs; the adaptive fleet serves every peak with
  zero EXHAUSTED and the pools conserve through both cycles.

* **Escrow storm, identity survives.**  The whole crowd gracefully
  shuts down mid-run and immediately re-inits the same SLID.  Every
  client gets its *exact* root key back from the quorum-replicated
  escrow record, and — unlike the crash path — not one unit is
  forfeited.

* **10^5 SL-Locals headline.**  One hundred thousand simulated clients
  on a diurnal curve with escrow and churn slices mixed in, against the
  same 3-shard ``--replicas 2`` fleet.  The incremental Equation 1
  ledger keeps per-renewal work independent of the holder count, so
  the fleet absorbs 10× the PR 8 crowd with zero EXHAUSTED.

Both scenarios audit fleet-wide conservation (``outstanding + lost +
available == total`` per license) and probe every shard's
``_server_stats`` renewal-health section.

``SL_SCENARIO_SMOKE=1`` shrinks the crowd for CI; full-scale numbers
are persisted to ``BENCH_scenarios.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

from repro.net.sharding import default_shard_names
from scenarios import (ScenarioSpec, diurnal_schedule, fleet_ledger_audit,
                       fleet_renewal_health, run_scenario)

SMOKE = bool(os.environ.get("SL_SCENARIO_SMOKE"))

SHARDS = 3
REPLICAS = 2
LICENSES = 6 if SMOKE else 12
FLASH_CLIENTS = 240 if SMOKE else 10_000
CHURN_CLIENTS = 150 if SMOKE else 4_000
DIURNAL_CLIENTS = 200 if SMOKE else 10_000
ESCROW_CLIENTS = 150 if SMOKE else 4_000
#: The 10^5 tier: the headline crowd this release exists to absorb.
HEADLINE_CLIENTS = 400 if SMOKE else 100_000
#: Flash-crowd clients renew once and hold: total static demand is then
#: Σ TG/(2C²) ≈ 0.82·TG, so the static fleet's refusals provably happen
#: *while units remain* (with a second renewal round the sum passes TG
#: and genuine pool exhaustion muddies the comparison).
FLASH_RENEWS = 1
CHURN_RENEWS = 2
DURATION = 2.0 if SMOKE else 4.0
WORKERS = 8 if SMOKE else 16
#: Units per license: 16 units per expected client leaves the adaptive
#: fleet headroom to serve every arrival (early Algorithm 1 grants are
#: huge, later ones degrade toward 1), while the static zero-proposal
#: threshold C > sqrt(TG·D)/D ~ sqrt(TG)/2 sits far below the hot
#: license's holder count — the static fleet must refuse.
POOL_PER_CLIENT = 16
CHURN_FRACTION = 0.2
CHURN_HEALTH = 0.85
#: The serve-remote default τ (policy.tau_fraction); the mass-churn
#: fleet runs without --autotune-lag so the bound stays at the default.
TAU_FRACTION = 0.10

MARKER = "SL-Remote listening on "
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_scenarios.json")


# ----------------------------------------------------------------------
# Fleet-process harness (same shape as the failover bench)
# ----------------------------------------------------------------------
def _free_ports(count):
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _spawn(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        if line.startswith(MARKER):
            return process
    process.kill()
    raise RuntimeError("serve-remote subprocess never reported its port")


def _spawn_fleet(ports, pool, admission, autotune, quorum=0):
    """One serve-remote per shard: async IO, depth-2 replication, and —
    crucially — a lag budget the size of the pool, so replication
    backpressure never pollutes the admission-control comparison (the
    failover bench owns the tight-budget regime)."""
    fleet = ",".join(
        f"{name}=127.0.0.1:{port}"
        for name, port in zip(default_shard_names(len(ports)), ports)
    )
    licenses = [arg
                for index in range(LICENSES)
                for arg in ("--license", f"lic-{index}:{pool}")]
    processes = []
    try:
        for index, port in enumerate(ports):
            command = [
                "serve-remote", "--port", str(port), "--accept-any-platform",
                "--shard-of", f"{index}:{len(ports)}",
                *licenses,
                "--replicas", str(REPLICAS), "--quorum", str(quorum),
                "--fleet", fleet,
                "--lag-budget", str(pool), "--lag-grants", "8",
                "--admission", "on" if admission else "off",
            ]
            if autotune:
                command.append("--autotune-lag")
            processes.append(_spawn(command))
    except Exception:
        _stop(processes)
        raise
    return processes


def _stop(processes):
    for process in processes:
        process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _fleet_url(ports):
    # Pipelined async client transports, v3 frames, and a short gather
    # window so concurrent renewals from the shared worker pool
    # coalesce into BatchRequest frames (the handle_renew_batch
    # admission path is part of what this bench proves).
    authority = ",".join(f"127.0.0.1:{port}" for port in ports)
    return (f"sl+sharded://{authority}"
            f"?io=async&batch_window=0.002"
            f"&timeout=60&replicas={REPLICAS}")


def _run_fleet(spec, pool, admission, autotune, seed, workers=None,
               connections=4, quorum=0):
    """Spawn a fleet, run the scenario, audit, tear down."""
    ports = _free_ports(SHARDS)
    processes = _spawn_fleet(ports, pool, admission, autotune, quorum=quorum)
    try:
        result = run_scenario(_fleet_url(ports), spec, seed=seed,
                              workers=workers or WORKERS,
                              connections=connections)
        probe = fleet_ledger_audit(_fleet_url(ports))
        health = fleet_renewal_health(ports)
    finally:
        _stop(processes)
    assert not result.failures, f"client failures: {result.failures[:3]}"
    return result, probe, health


def _persist(section, metrics):
    if SMOKE:
        return
    payload = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as handle:
            payload = json.load(handle)
    payload[section] = metrics
    payload["smoke"] = SMOKE
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Flash crowd: static refuses, adaptive degrades
# ----------------------------------------------------------------------
def test_flash_crowd_adaptive_beats_static(table_printer):
    pool = POOL_PER_CLIENT * FLASH_CLIENTS
    spec = ScenarioSpec(
        name="flash_crowd", clients=FLASH_CLIENTS, licenses=LICENSES,
        pool_per_license=pool, renews_per_client=FLASH_RENEWS,
        duration_seconds=DURATION, arrivals="flash_crowd",
    )

    static, static_probe, _ = _run_fleet(
        spec, pool, admission=False, autotune=False, seed=7)
    adaptive, adaptive_probe, health = _run_fleet(
        spec, pool, admission=True, autotune=True, seed=7)

    static_m, adaptive_m = static.metrics(), adaptive.metrics()
    table_printer(
        "flash crowd: static vs adaptive",
        ("metric", "static", "adaptive"),
        [(key, static_m[key], adaptive_m[key])
         for key in ("renews_ok", "exhausted", "exhausted_rate",
                     "goodput_renewals_per_second", "granted_units",
                     "p50_ms", "p99_ms")],
    )

    # The static fleet refused while the pool still held units — the
    # graceless regime this release removes.
    assert static.renews_exhausted > 0
    assert any(row["available"] > 0 for row in static_probe.values())
    assert static_m["exhausted_rate"] > 0.10

    # The adaptive fleet served the identical crowd without a single
    # refusal, at strictly higher goodput — and the ladder's caps left
    # it headroom (it degraded grants rather than draining the pools).
    assert adaptive.renews_exhausted == 0
    assert adaptive.renews_ok == spec.clients * spec.renews_per_client
    assert (adaptive_m["goodput_renewals_per_second"]
            > static_m["goodput_renewals_per_second"])
    assert all(row["available"] > 0 for row in adaptive_probe.values())

    # Degraded grants did the work: every shard that saw pressure
    # reports admission on and degraded grants in its renewal health.
    assert all(report["admission"] for report in health)
    assert sum(sum(entry["degraded"] for entry in report["licenses"].values())
               for report in health) > 0
    assert all(report["exhausted_served"] == 0 for report in health)

    _persist("flash_crowd", {"static": static_m, "adaptive": adaptive_m})


# ----------------------------------------------------------------------
# Mass churn: forfeiture stays inside the Equation 1 budget
# ----------------------------------------------------------------------
def test_mass_churn_forfeiture_bounded(table_printer):
    pool = POOL_PER_CLIENT * CHURN_CLIENTS
    spec = ScenarioSpec(
        name="mass_churn", clients=CHURN_CLIENTS, licenses=LICENSES,
        pool_per_license=pool, renews_per_client=CHURN_RENEWS,
        duration_seconds=DURATION, arrivals="mass_churn",
        churn_fraction=CHURN_FRACTION, churn_health=CHURN_HEALTH,
    )

    result, probe, health = _run_fleet(
        spec, pool, admission=True, autotune=False, seed=11)
    metrics = result.metrics()
    table_printer(
        "mass churn (adaptive fleet)",
        ("metric", "value"),
        [(key, metrics[key])
         for key in ("renews_ok", "exhausted", "crashes", "forfeited_units",
                     "max_crash_forfeit", "p99_ms")],
    )

    # Crashes actually happened and forfeited real units.
    assert result.crashes > 0
    assert metrics["forfeited_units"] > 0

    # Equation 1's τ bound, per crash: a node claiming health h can
    # never hold more than τ·TG / (1 − h), so no single crash strands
    # more than that.
    per_crash_bound = TAU_FRACTION * pool / (1.0 - CHURN_HEALTH)
    assert metrics["max_crash_forfeit"] <= per_crash_bound + 1

    # Client-observed forfeits reconcile exactly with the fleet's
    # written-off units — nothing stranded twice, nothing resurrected.
    lost_total = sum(row["lost"] for row in probe.values())
    assert lost_total == metrics["forfeited_units"], (
        f"fleet wrote off {lost_total}, clients forfeited "
        f"{metrics['forfeited_units']}")

    # Churn telemetry reached the renewal-health tables.
    assert all(report["admission"] for report in health)

    _persist("mass_churn", metrics)


# ----------------------------------------------------------------------
# Diurnal curve: peaks served, valleys deep, pools conserve
# ----------------------------------------------------------------------
def test_diurnal_peaks_served_without_refusal(table_printer):
    import random

    pool = POOL_PER_CLIENT * DIURNAL_CLIENTS
    spec = ScenarioSpec(
        name="diurnal", clients=DIURNAL_CLIENTS, licenses=LICENSES,
        pool_per_license=pool, renews_per_client=FLASH_RENEWS,
        duration_seconds=DURATION * 2, arrivals="diurnal",
    )

    # The schedule itself must be genuinely diurnal: with two cosine
    # cycles over the run, the busiest eighth of the timeline carries
    # several times the arrivals of the quietest eighth.
    arrivals = diurnal_schedule(spec.clients, spec.duration_seconds,
                                random.Random(5))
    bins = [0] * 8
    for t in arrivals:
        bins[min(7, int(t / spec.duration_seconds * 8))] += 1
    assert max(bins) > 2 * max(1, min(bins)), f"curve not diurnal: {bins}"

    result, probe, health = _run_fleet(
        spec, pool, admission=True, autotune=True, seed=13)
    metrics = result.metrics()
    table_printer(
        "diurnal curve (adaptive fleet)",
        ("metric", "value"),
        [(key, metrics[key])
         for key in ("renews_ok", "exhausted", "goodput_renewals_per_second",
                     "p50_ms", "p99_ms", "schedule_slip_p99_ms")],
    )

    # Both peaks served in full, no refusals, pools conserve with room.
    assert result.renews_exhausted == 0
    assert result.renews_ok == spec.clients * spec.renews_per_client
    assert all(row["available"] > 0 for row in probe.values())
    assert all(report["exhausted_served"] == 0 for report in health)

    _persist("diurnal", metrics)


# ----------------------------------------------------------------------
# Escrow storm: mass graceful shutdown, identity quorum holds
# ----------------------------------------------------------------------
def test_escrow_storm_restores_every_identity(table_printer):
    pool = POOL_PER_CLIENT * ESCROW_CLIENTS
    spec = ScenarioSpec(
        name="escrow_storm", clients=ESCROW_CLIENTS, licenses=LICENSES,
        pool_per_license=pool, renews_per_client=FLASH_RENEWS,
        duration_seconds=DURATION, arrivals="mass_churn",
        escrow_fraction=1.0,
    )

    # quorum=1: identity (init/shutdown) acks gate on a follower
    # confirming the escrow delta — the storm hammers that gate.
    result, probe, health = _run_fleet(
        spec, pool, admission=True, autotune=False, seed=17, quorum=1)
    metrics = result.metrics()
    table_printer(
        "escrow storm (graceful shutdown + re-init, whole crowd)",
        ("metric", "value"),
        [(key, metrics[key])
         for key in ("renews_ok", "escrow_cycles", "escrow_restored",
                     "forfeited_units", "p99_ms")],
    )

    # Every client cycled and every root key came back bit-exact from
    # the quorum-replicated escrow record.
    assert result.escrow_cycles == spec.clients
    assert result.escrow_restored == result.escrow_cycles

    # Graceful is the opposite of the crash path: nothing forfeited,
    # nothing written off — the holdings survive the identity cycle.
    assert result.crashes == 0
    assert metrics["forfeited_units"] == 0
    assert sum(row["lost"] for row in probe.values()) == 0
    assert all(report["admission"] for report in health)

    _persist("escrow_storm", metrics)


# ----------------------------------------------------------------------
# The 10^5 tier: one hundred thousand SL-Locals, every shape at once
# ----------------------------------------------------------------------
def test_hundred_thousand_locals_headline(table_printer):
    """The release headline: 10^5 simulated SL-Locals — diurnal
    arrivals with escrow-storm and crash-churn slices mixed in — on the
    same 3-shard fleet, zero EXHAUSTED.  Feasible precisely because the
    incremental ledger makes per-renewal work independent of how many
    of the 10^5 already hold units."""
    pool = POOL_PER_CLIENT * HEADLINE_CLIENTS
    spec = ScenarioSpec(
        name="fleet_100k", clients=HEADLINE_CLIENTS, licenses=LICENSES,
        pool_per_license=pool, renews_per_client=1,
        duration_seconds=DURATION * 8, arrivals="diurnal",
        churn_fraction=0.02, churn_health=CHURN_HEALTH,
        escrow_fraction=0.10,
    )

    # quorum=0, like the flash crowd: the headline measures the renewal
    # path's scale independence.  The dedicated escrow-storm test owns
    # the quorum-gated identity plane (whose ack throughput is bounded
    # by the flusher's snapshot pass — O(#SLIDs) — and so caps gated
    # inits well below this crowd's arrival rate; see ROADMAP).
    result, probe, health = _run_fleet(
        spec, pool, admission=True, autotune=True, seed=23,
        workers=WORKERS * 2, connections=8)
    metrics = result.metrics()
    table_printer(
        f"{HEADLINE_CLIENTS} SL-Locals (diurnal + escrow + churn)",
        ("metric", "value"),
        [(key, metrics[key])
         for key in ("renews_ok", "exhausted", "goodput_renewals_per_second",
                     "crashes", "forfeited_units", "escrow_cycles",
                     "escrow_restored", "p50_ms", "p99_ms")],
    )

    # Zero refusals at 10× the PR 8 crowd, and every arrival served.
    assert result.renews_exhausted == 0
    assert result.renews_ok == spec.clients * spec.renews_per_client
    assert all(report["exhausted_served"] == 0 for report in health)

    # The identity quorum held under the embedded escrow storm.
    assert result.escrow_cycles > 0
    assert result.escrow_restored == result.escrow_cycles

    # Crash forfeits reconcile exactly against the fleet's write-offs;
    # graceful cycles contributed nothing to `lost`.
    lost_total = sum(row["lost"] for row in probe.values())
    assert lost_total == metrics["forfeited_units"], (
        f"fleet wrote off {lost_total}, clients forfeited "
        f"{metrics['forfeited_units']}")

    _persist("fleet_100k", metrics)
