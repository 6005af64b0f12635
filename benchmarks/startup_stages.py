"""Where a restarted durable shard spends its time before it can serve.

``bench/``'s ``recover`` workload reads restart -> first renewal end to
end; this splits the server's share of it into stages, each timed in a
fresh interpreter pinned to one vCPU (as ``bench/`` pins)::

    python benchmarks/startup_stages.py                  # this tree
    python benchmarks/startup_stages.py --src OTHER/src  # another checkout

Stages: interpreter start, ``import repro.cli``, the durable
``serve-remote`` shape's own imports, ``attach_persistence`` on a
photograph of a 2,000-cycle log (read, unseal, replay, compact), and
``AsyncLeaseServer.start``.  Medians of ``--repeat`` runs; module
counts are ``len(sys.modules)`` after the stage.  Not a test and not a
gate: ARCHITECTURE's "Process start" table is re-measured with it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BUILD_LOG = r"""
import os, sys
from repro.core.protocol import InitRequest, RenewRequest
from repro.core.licensefile import mint_license_blob
from repro.core.sl_remote import SlRemote
from repro.net.transport import HandlerTable
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.storage.wal import attach_persistence

data, anchors, cycles = sys.argv[1], sys.argv[2], int(sys.argv[3])
remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
attach_persistence(remote, data, anchor_dir=anchors, fsync="off")
licenses = [f"lic-{i}" for i in range(8)]
for license_id in licenses:
    remote.issue_license(license_id, 10 ** 12)
machine = SgxMachine("stage-builder")
handlers = HandlerTable(remote.protocol_handlers())  # as the server dispatches
call = lambda method, payload: handlers.dispatch(
    method, payload, clock=machine.clock, stats=machine.stats)
slid = call("init", InitRequest(
    slid=None, report=machine.local_authority.generate_report(1, 1, nonce=1),
    platform_secret=machine.platform_secret)).slid
for cycle in range(cycles + 4):
    license_id = licenses[cycle % len(licenses)]
    reply = call("renew", RenewRequest(
        slid=slid, license_id=license_id,
        license_blob=mint_license_blob(license_id),
        network_reliability=1.0, health=1.0))
    if cycle < cycles:  # the last four grants stay in the field
        call("return_units", (slid, license_id, reply.granted_units))
sys.stdout.flush()
os._exit(0)  # a kill, not a close: recovery has grants to forfeit
"""

STAGES = r"""
import json, sys, time
clock, stages = time.perf_counter, []
def stage(name, since):
    stages.append((name, (clock() - since) * 1e3, len(sys.modules)))

since = clock()
import repro.cli
stage("import repro.cli", since)
since = clock()
from repro.core.sl_remote import SlRemote
from repro.sgx.attestation import RemoteAttestationService
import repro.storage.anchor
from repro.storage.wal import attach_persistence
from repro.net.aio import AsyncLeaseServer
stage("serve-remote's own imports", since)
remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
since = clock()
persistence, = attach_persistence(remote, sys.argv[1], anchor_dir=sys.argv[2],
                                  fsync="always")
stage("attach_persistence", since)
server = AsyncLeaseServer(remote, port=0)
since = clock()
server.start()
stage("AsyncLeaseServer.start", since)
server.stop()
persistence.close()
print(json.dumps({
    "stages": stages,
    "records": persistence.last_report.records_replayed,
    "repro_modules": sorted(m for m in sys.modules if m.startswith("repro.")),
}))
"""


def run(code, *args, env):
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout, (time.perf_counter() - started) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(
        Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=2000)
    args = parser.parse_args()

    if hasattr(os, "sched_setaffinity"):  # one vCPU, inherited by children
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=args.src)
    work = tempfile.mkdtemp(prefix="sl-startup-")
    try:
        photo = [os.path.join(work, name) for name in ("data", "anchors")]
        run(BUILD_LOG, *photo, str(args.cycles), env=env)
        bare, rows, records, modules = [], {}, 0, []
        for index in range(args.repeat):
            bare.append(run("pass", env=env)[1])
            image = [f"{path}.{index}" for path in photo]
            for source, target in zip(photo, image):
                shutil.copytree(source, target)
            report = json.loads(run(STAGES, *image, env=env)[0])
            for name, millis, count in report["stages"]:
                rows.setdefault(name, []).append((millis, count))
            records, modules = report["records"], report["repro_modules"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"src: {args.src}   median of {args.repeat}, one vCPU")
    print(f"  {'interpreter start':32s} {statistics.median(bare):8.1f} ms")
    for name, samples in rows.items():
        print(f"  {name:32s} {statistics.median(m for m, _ in samples):8.1f} ms"
              f"   {samples[-1][1]:4d} modules")
    print(f"  replayed {records} records; {len(modules)} repro.* modules "
          f"loaded: {' '.join(m[len('repro.'):] for m in modules)}")


if __name__ == "__main__":
    main()
