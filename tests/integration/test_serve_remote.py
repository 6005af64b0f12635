"""End-to-end: `repro serve-remote` as a real process, clients over TCP.

Launches the CLI subcommand in a subprocess, discovers the ephemeral
port from its marker line, then drives two independent SL-Local clients
through the full init -> renew -> attest -> shutdown lifecycle across
the socket.
"""

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.licensefile import mint_license_blob
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.crypto.keys import KeyGenerator
from repro.net.endpoint import connect
from repro.net.network import NetworkConditions
from repro.sgx import SgxMachine
from repro.sim.rng import DeterministicRng

REPO_ROOT = Path(__file__).resolve().parents[2]
MARKER = "SL-Remote listening on "


@pytest.fixture()
def remote_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-remote",
         "--port", "0", "--license", "lic-wire:50000",
         "--accept-any-platform"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    try:
        # The server logs issued licenses first; scan for the marker.
        seen = []
        for _ in range(10):
            line = process.stdout.readline()
            if not line:
                break
            seen.append(line)
            if MARKER in line:
                break
        else:
            line = ""
        if MARKER not in line:
            raise RuntimeError(f"server never came up: {seen!r}")
        host, port = line.split(MARKER, 1)[1].strip().rsplit(":", 1)
        yield host, int(port)
    finally:
        process.terminate()
        process.wait(timeout=10)


def run_lifecycle(address, name, seed, checks):
    """One SL-Local + SL-Manager pair against the out-of-process server."""
    machine = SgxMachine(name)
    endpoint = connect(
        "sl://%s:%d" % address,
        conditions=NetworkConditions(round_trip_seconds=0.002),
        timeout_seconds=10.0,
    )
    sl_local = SlLocal(machine, endpoint, KeyGenerator(DeterministicRng(seed)),
                       tokens_per_attestation=10)
    sl_local.init()                      # init
    manager = SlManager(f"app@{name}", machine, sl_local,
                        tokens_per_attestation=10)
    manager.load_license("lic-wire", mint_license_blob("lic-wire"))
    served = sum(manager.check("lic-wire") for _ in range(checks))  # attest
    renewals = sl_local.remote_renewals  # renew happened under the hood
    slid = sl_local.slid
    sl_local.shutdown()                  # shutdown
    endpoint.close()
    return {"slid": slid, "served": served, "renewals": renewals}


def test_two_clients_full_lifecycle_against_subprocess(remote_process):
    results = [None, None]
    errors = []

    def worker(index):
        try:
            results[index] = run_lifecycle(
                remote_process, f"node-{index}", seed=index + 1, checks=25
            )
        except Exception as exc:  # noqa: BLE001 - reported to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors

    assert all(r is not None for r in results)
    # Every check was served, both clients renewed at least once, and the
    # server handed each its own identity.
    assert [r["served"] for r in results] == [25, 25]
    assert all(r["renewals"] >= 1 for r in results)
    assert results[0]["slid"] != results[1]["slid"]


def test_server_survives_client_churn(remote_process):
    """Sequential clients over fresh connections: slids keep advancing."""
    first = run_lifecycle(remote_process, "churn-a", seed=7, checks=5)
    second = run_lifecycle(remote_process, "churn-b", seed=8, checks=5)
    assert second["slid"] > first["slid"]
    assert (first["served"], second["served"]) == (5, 5)


def _spawn_serve_remote(extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-remote",
         "--port", "0", "--license", "lic-wire:50000",
         "--accept-any-platform", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )


def _read_until_marker(process):
    seen = []
    for _ in range(20):
        line = process.stdout.readline()
        if not line:
            break
        seen.append(line)
        if MARKER in line:
            return seen
    raise RuntimeError(f"server never came up: {seen!r}")


def test_recovery_markers_precede_listening_with_batching(tmp_path):
    """Startup ordering survives batching.

    A durable server is driven through batched renewals, then
    restarted on the same ledger: every ``SL-Recovery`` replay marker
    must still print *before* the listening marker, so harnesses that
    wait for the port have already seen the replay stats.
    """
    from repro.core.protocol import Status
    from repro.net.endpoint import connect

    args = ["--data-dir", str(tmp_path / "ledger"), "--fsync", "always",
            "--wire", "3"]
    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        host, port = seen[-1].split(MARKER, 1)[1].strip().rsplit(":", 1)
        endpoint = connect(
            f"sl://{host}:{int(port)}?batch_window=0.001",
            conditions=NetworkConditions(round_trip_seconds=0.002),
            timeout_seconds=10.0,
        )
        machine = SgxMachine("batch-node")
        sl_local = SlLocal(machine, endpoint,
                           KeyGenerator(DeterministicRng(3)),
                           tokens_per_attestation=10)
        sl_local.init()
        # One coalesced prefetch (renew_batch + WAL group commit) and a
        # coalescer-routed renewal on top.
        statuses = sl_local.prefetch_leases(
            {"lic-wire": mint_license_blob("lic-wire")}
        )
        assert statuses == {"lic-wire": Status.OK}
        manager = SlManager("app@batch-node", machine, sl_local,
                            tokens_per_attestation=10)
        manager.load_license("lic-wire", mint_license_blob("lic-wire"))
        assert manager.check("lic-wire")
        assert endpoint.transport.coalescer is not None
        sl_local.shutdown()
        endpoint.close()
    finally:
        process.terminate()
        process.wait(timeout=10)

    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        recovery_indexes = [index for index, line in enumerate(seen)
                            if line.startswith("SL-Recovery")]
        marker_index = next(index for index, line in enumerate(seen)
                            if MARKER in line)
        assert recovery_indexes, f"no recovery marker in {seen!r}"
        assert max(recovery_indexes) < marker_index
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_in_process_shards_refuse_a_rolled_back_data_dir(tmp_path):
    """``--shards N`` honours ``--anchor-dir`` like per-process shards do.

    Photograph the data dir, let history move on, restore the
    photograph: the restart must print the ``SL-Anchor`` marker and exit
    3 instead of serving resurrected units — and the honest image must
    still start.
    """
    from repro.storage.anchor import FreshnessAnchor

    data, anchors = tmp_path / "ledger", tmp_path / "anchors"
    photo, honest = tmp_path / "photo", tmp_path / "honest"
    args = ["--shards", "2", "--data-dir", str(data),
            "--anchor-dir", str(anchors), "--fsync", "always"]

    def watermarks():
        return {path.name: FreshnessAnchor(str(path)).read()
                for path in anchors.glob("*.anchor")}

    process = _spawn_serve_remote(args)
    try:
        _read_until_marker(process)
    finally:
        process.kill()
        process.wait(timeout=10)
    shutil.copytree(data, photo)            # the attacker's photograph

    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        host, port = seen[-1].split(MARKER, 1)[1].strip().rsplit(":", 1)
        before = watermarks()
        run_lifecycle((host, int(port)), "anchor-node", seed=5, checks=5)
        deadline = time.monotonic() + 10.0  # the 50 ms maintenance ratchet
        while watermarks() == before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert watermarks() != before, "anchors never advanced past the photo"
    finally:
        process.kill()
        process.wait(timeout=10)
    shutil.copytree(data, honest)

    shutil.rmtree(data)                     # the rollback
    shutil.copytree(photo, data)
    process = _spawn_serve_remote(args)
    output, _ = process.communicate(timeout=30)
    assert process.returncode == 3, output
    assert "SL-Anchor shard-" in output and "stale image" in output
    assert MARKER not in output

    shutil.rmtree(data)
    shutil.copytree(honest, data)
    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        assert sum(line.startswith("SL-Recovery") for line in seen) == 2
    finally:
        process.kill()
        process.wait(timeout=10)


def test_sigterm_is_a_clean_stop(tmp_path):
    """SIGTERM — what every supervisor sends — takes Ctrl-C's path.

    Under ``--fsync interval`` the last records ride the OS cache and
    the anchor trails by up to one maintenance tick, so only the clean
    path (final sync, anchor ratchet, summary line) leaves the anchor
    at the log's last seq.  The restart then drops nothing and still
    holds every grant the client was acknowledged.
    """
    from repro.core.licensefile import VENDOR_SECRET
    from repro.sim.clock import Clock
    from repro.storage.anchor import FreshnessAnchor
    from repro.storage.wal import WriteAheadLog, derive_wal_key64

    data, anchors = tmp_path / "ledger", tmp_path / "anchors"
    args = ["--data-dir", str(data),
            "--anchor-dir", str(anchors), "--fsync", "interval"]

    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        host, port = seen[-1].split(MARKER, 1)[1].strip().rsplit(":", 1)
        endpoint = connect(f"sl://{host}:{port}", timeout_seconds=10.0)
        sl_local = SlLocal(SgxMachine("term-node"), endpoint,
                           KeyGenerator(DeterministicRng(11)),
                           tokens_per_attestation=10)
        sl_local.init()
        for _ in range(5):  # acknowledged grants, never returned
            sl_local._fetch_lease("lic-wire", mint_license_blob("lic-wire"))
        held = endpoint.call("ledger_probe", "lic-wire",
                             clock=Clock())["lic-wire"]["outstanding"]
        assert held > 0
        process.terminate()  # no pause: the records are not fsynced yet
        output, _ = process.communicate(timeout=10)
        endpoint.close()
    finally:
        process.kill()
        process.wait(timeout=10)
    assert process.returncode == 0, output
    assert output == ("shutting down\n"  # init + 5 renewals + the probe
                      "served 7 requests over 1 connections (0 errors)\n")

    records, good_offset, size = WriteAheadLog.read(
        str(data / "remote" / "ledger.wal"),
        derive_wal_key64(VENDOR_SECRET, "remote"))
    assert good_offset == size and len(records) >= 7  # issue, init, 5 grants
    anchor = FreshnessAnchor(str(anchors / "remote.anchor")).read()
    assert anchor == records[-1].seq

    process = _spawn_serve_remote(args)
    try:
        seen = _read_until_marker(process)
        recovery, = [line for line in seen if line.startswith("SL-Recovery")]
        assert f"records={len(records)} forfeited={held} dropped=0" in recovery
    finally:
        process.terminate()
        assert process.wait(timeout=10) == 0
