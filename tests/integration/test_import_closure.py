"""A lease server imports what its shape runs, and nothing else.

Restart -> first renewal is client-visible downtime and most of it is
``import``.  Each ``serve-remote`` shape is started under
``-X importtime``, served one full client lifecycle, and stopped with
SIGTERM; the import log must hold none of the simulation trees, and
nothing of ours may load for the first time after the listening
marker (that would be an import on a request path, possibly inside a
license lock).

The child runs with ``-S``, so that only the shape's own imports are
counted: ``site`` would otherwise run every ``.pth`` file in
site-packages, and one that imports a package (``certifi``, say) logs
dozens of modules that no shape asked for.  The test's own ``sys.path``
follows ``src/`` on the child's ``PYTHONPATH``, so numpy and every
other installed package is still found.
"""

import os
import subprocess
import sys

import pytest

from repro.core.licensefile import mint_license_blob
from repro.core.sl_local import SlLocal
from repro.crypto.keys import KeyGenerator
from repro.net.endpoint import connect
from repro.sgx import SgxMachine
from repro.sim.rng import DeterministicRng

MARKER = "SL-Remote listening on "

#: Executed by no serve-remote shape.
NEVER = ("networkx", "asyncio", "scipy", "repro.cluster", "repro.deployment",
         "repro.workloads", "repro.partition", "repro.callgraph",
         "repro.attacks", "repro.experiments", "repro.redteam", "repro.vcpu",
         "repro.core.sl_local")
NOT_IN_MEMORY = ("repro.storage.wal", "repro.net.sharding",
                 "repro.net.replication")

SHAPES = {
    "memory": ([], NEVER + NOT_IN_MEMORY),
    "durable": (["--data-dir", "{tmp}/ledger", "--anchor-dir", "{tmp}/anchors"],
                NEVER),
    "sharded": (["--shards", "3", "--replicas", "1", "--quorum", "1"], NEVER),
}


def imported_modules(importtime_log):
    """Module names from ``-X importtime`` lines, in import order."""
    return [line.rsplit("|", 1)[1].strip()
            for line in importtime_log.splitlines()
            if line.startswith("import time:") and "[us]" not in line]


def loaded(modules, prefix):
    return [name for name in modules
            if name == prefix or name.startswith(prefix + ".")]


@pytest.mark.parametrize("shape", SHAPES)
def test_serve_remote_import_closure(shape, tmp_path, src_env):
    extra, forbidden = SHAPES[shape]
    log_path = tmp_path / "importtime.log"
    env = dict(src_env, PYTHONPATH=os.pathsep.join(
        [src_env["PYTHONPATH"], *filter(None, sys.path)]))
    with open(log_path, "wb") as log, subprocess.Popen(
            [sys.executable, "-S", "-X", "importtime", "-m", "repro.cli",
             "serve-remote", "--port", "0",
             "--license", "lic-wire:50000", "--accept-any-platform",
             *(arg.format(tmp=tmp_path) for arg in extra)],
            stdout=subprocess.PIPE, stderr=log, env=env,
            text=True) as process:
        try:
            for line in process.stdout:
                if MARKER in line:
                    break
            else:
                raise RuntimeError(
                    f"server never came up: {log_path.read_text()}")
            at_marker = log_path.stat().st_size
            host, port = line.split(MARKER, 1)[1].strip().rsplit(":", 1)
            endpoint = connect(f"sl://{host}:{port}", timeout_seconds=10.0)
            sl_local = SlLocal(SgxMachine("closure-node"), endpoint,
                               KeyGenerator(DeterministicRng(7)),
                               tokens_per_attestation=10)
            sl_local.init()
            sl_local._fetch_lease("lic-wire", mint_license_blob("lic-wire"))
            sl_local.shutdown()
            endpoint.close()
            process.terminate()
            assert process.wait(timeout=10) == 0
        finally:
            process.kill()

    log = log_path.read_bytes()
    assert b"Traceback" not in log
    modules = imported_modules(log.decode())
    assert "repro.core.sl_remote" in modules  # the log is the server's
    for prefix in forbidden:
        assert not loaded(modules, prefix), (shape, prefix)
    if shape == "durable":
        # bench/'s recover shape; 676 modules before the exports went lazy.
        # 260 counted with a site that runs no .pth file; of those lines
        # only site, _sitebuiltins and the attempted sitecustomize and
        # usercustomize imports are site's alone (the os modules it
        # loads, the server loads too), so under -S the same budget is:
        assert len(modules) <= 260 - 4, len(modules)
    late = imported_modules(log[at_marker:].decode())
    assert not [name for name in late
                if name.split(".")[0] in ("repro", "numpy")], late
