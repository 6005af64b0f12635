"""Process hygiene: `serve-remote` children, scratch directories, teardown.

Every server runs in its own process group on an ephemeral port with its
data and anchor directories under one scratch directory inside the
checkout.  A :class:`Sandbox` owns both and removes them on success,
exception and Ctrl-C, so no orphan server skews the next workload.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from typing import List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes (scratch dirs, run records, spans).
OUT_DIR = os.path.join(ROOT, ".bench_out")

LISTEN_MARKER = "SL-Remote listening on "
LICENSES = [f"lic-{index}" for index in range(8)]
#: Algorithm 1 sizes grants from the total pool; with every grant
#: returned, a pool this deep never degrades a grant.
POOL_UNITS = 10**12
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The run is invalid: a server died, a wait expired, an audit failed."""


class Server:
    """One ``python -m repro.cli serve-remote`` child.

    Only flags that survive ROADMAP item 3 are passed: ``--io async
    --wire 3``; ``--ledger-commit-seconds`` is never set, so the
    simulated commit sleep stays at its default of 0.
    """

    def __init__(self, flags: Sequence[str]) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve-remote",
                   "--port", "0", "--accept-any-platform",
                   "--io", "async", "--wire", "3"]
        for license_id in LICENSES:
            command += ["--license", f"{license_id}:{POOL_UNITS}"]
        # A fixed hash seed: one less thing that differs between runs.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            command + list(flags), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,
        )
        self.stdout: List[str] = []
        self.stderr: List[str] = []
        self.address: Optional[str] = None
        self._listening = threading.Event()
        # Both pipes are drained for the child's whole life: a full pipe
        # would stall the server inside print().
        self._readers = [
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.process.stdout, self.stdout)),
            threading.Thread(target=self._drain, daemon=True,
                             args=(self.process.stderr, self.stderr)),
        ]
        for reader in self._readers:
            reader.start()

    def _drain(self, pipe, lines: List[str]) -> None:
        for line in pipe:
            lines.append(line.rstrip("\n"))
            if line.startswith(LISTEN_MARKER):
                self.address = line[len(LISTEN_MARKER):].strip()
                self._listening.set()
        pipe.close()
        self._listening.set()  # EOF: wake the waiter, address stays None

    def wait_listening(self, timeout: float = 60.0) -> str:
        self._listening.wait(timeout)
        if self.address is None:
            self.kill()
            raise BenchError(
                "server never reported listening; it said: "
                + " | ".join((self.stdout + self.stderr)[-6:])
            )
        return self.address

    # -- measurements taken from outside the process -------------------
    def cpu_seconds(self) -> float:
        """CPU time of the server process, all threads: the scheduler's
        nanosecond run times, because utime + stime tick in 10 ms steps
        and the blocks it is read over (``load.SpeedProbe``) are 20 ms long."""
        tasks = f"/proc/{self.process.pid}/task"
        total = 0
        try:
            for task in os.listdir(tasks):
                try:
                    with open(f"{tasks}/{task}/schedstat") as handle:
                        total += int(handle.read().split()[0])
                except FileNotFoundError:
                    pass  # the thread ended between listdir and open
            if total:
                return total / 1e9
        except OSError:
            pass
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("server has no VmRSS (already dead?)")

    def traceback_seen(self) -> bool:
        return any("Traceback" in line for line in self.stderr)

    # -- teardown ------------------------------------------------------
    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.process.pid, signum)
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        """SIGKILL: no final fsync, no anchor ratchet, no goodbye."""
        self._signal_group(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        self._signal_group(signal.SIGTERM)
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self._signal_group(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        self.process.wait(timeout=10.0)
        for reader in self._readers:
            reader.join(timeout=5.0)


class Sandbox:
    """A scratch directory plus every server started inside it."""

    def __init__(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.servers: List[Server] = []
        self._dirs = 0

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.directory, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def spawn(self, flags: Sequence[str]) -> Server:
        server = Server(flags)
        self.servers.append(server)
        server.wait_listening()
        return server

    def retire(self, server: Server, kill: bool = False) -> None:
        """Stop one server; a traceback it printed invalidates the run."""
        self.servers.remove(server)
        if kill:
            server.kill()
        else:
            server.stop()
        if server.traceback_seen():
            raise BenchError("server traceback: " + " | ".join(server.stderr[-8:]))

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers = []
        shutil.rmtree(self.directory, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every thread and server it starts, to
    one vCPU (the last one it may use; the first takes the interrupts).

    The sandbox's two vCPUs behave like the two threads of one core of
    the host: a busy loop on one slows the other by 1.8x (README.md,
    "How a window is read"), so two busy processes on two vCPUs measure
    each other.  On one vCPU client and server take turns, no request
    waits for a halted vCPU to be woken, and the other vCPU stays free
    for whatever else the machine runs.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not allowed here: the run is valid, only noisier


def raise_on_sigterm() -> None:
    """Turn SIGTERM into an exception so ``with Sandbox()`` unwinds."""
    def handler(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, handler)
