"""The six workloads.  Each stresses a different layer; `why` says which.

A workload sets a stage up (server + enrolled clients; repeatable, so
set-up time can be a median), drives it for the measured window, and
audits the ledgers afterwards.  The primary operation — the one whose
latency and rate are reported — differs per workload and is named by
``op``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from harness import LICENSES, BenchError, Sandbox, Server
from load import (
    SpeedProbe,
    Client,
    Tally,
    audit_conservation,
    audit_wire,
    batch_cycle,
    full_speed_values,
    closed_loop,
    enroll_cycle,
    is_ok_response,
    is_ok_status,
    median,
    open_loop,
    percentile,
    renew_cycle,
    renew_request,
    stream,
)

#: nproc is 2: two load threads, one connection each.
CONNECTIONS = 2
WARMUP_SECONDS = 1.0


@dataclass
class Stage:
    """A running server with its connected, enrolled clients."""

    server: Server
    clients: List[Client]
    slids: List[List[int]]  # per client, the SLIDs it enrolled
    flags: List[str] = field(default_factory=list)  # the server's
    data_dir: Optional[str] = None
    anchor_dir: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def close(self, sandbox: Sandbox, kill: bool = False) -> None:
        for client in self.clients:
            client.close()
        sandbox.retire(self.server, kill=kill)


@dataclass
class Measured:
    """One measured window: its tally and the end-to-end values read
    from it (``load.full_speed_values`` plus the server's resident memory)."""

    tally: Tally
    values: Dict[str, float]
    window_seconds: float
    info: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    op = ""  # the primary operation, for the report
    durable = False
    fleet = False
    slids_per_client = 1
    #: Calls of each method in one cycle, and primary operations in it.
    cycle: Dict[str, int] = {"renew": 1, "return_units": 1}
    ops_per_cycle = 1
    open_loop = False

    # -- stage ---------------------------------------------------------
    def flags(self, sandbox: Sandbox) -> Tuple[List[str], Optional[str],
                                               Optional[str]]:
        flags: List[str] = []
        data_dir = anchor_dir = None
        if self.fleet:
            flags += ["--shards", "3", "--replicas", "1", "--quorum", "1"]
        if self.durable:
            data_dir = sandbox.fresh_dir("data")
            flags += ["--data-dir", data_dir, "--fsync", "always"]
            if not self.fleet:
                # --anchor-dir is for per-process shards only.
                anchor_dir = sandbox.fresh_dir("anchor")
                flags += ["--anchor-dir", anchor_dir]
        return flags, data_dir, anchor_dir

    def setup(self, sandbox: Sandbox, seed: int,
              connections: int = CONNECTIONS) -> Stage:
        flags, data_dir, anchor_dir = self.flags(sandbox)
        server = sandbox.spawn(flags)
        names = stream(seed, self.name, "names")
        clients = [
            Client(server.address,
                   f"bench-{self.name}-{names.getrandbits(32):08x}")
            for _ in range(connections)
        ]
        slids = [[client.init() for _ in range(self.slids_per_client)]
                 for client in clients]
        stage = Stage(server=server, clients=clients, slids=slids,
                      flags=flags, data_dir=data_dir, anchor_dir=anchor_dir)
        self.preload(stage, seed)
        return stage

    def preload(self, stage: Stage, seed: int) -> None:
        """Work a fresh stage needs before the window opens."""

    # -- window --------------------------------------------------------
    def drive(self, stage: Stage, seed: int, seconds: float,
              phase: str) -> Tuple[Tally, float, float]:
        """Run the load; returns (tally, window start, window end)."""
        raise NotImplementedError

    def warm_up(self, stage: Stage, seed: int) -> None:
        warm, _, _ = self.drive(stage, seed, WARMUP_SECONDS, "warmup")
        if warm.failed:
            raise BenchError(f"warm-up failures: {warm.notes}")

    def measure(self, sandbox: Sandbox, stage: Stage, seed: int,
                seconds: float, probe: SpeedProbe) -> Measured:
        self.warm_up(stage, seed)
        # The first client's thread reads the machine's speed between
        # its calls (load.SpeedProbe).
        probe.cpu_clock = stage.server.cpu_seconds
        probe.read()
        opened = probe.readings[-1][0]
        stage.clients[0].probe = probe
        try:
            tally, start, end = self.drive(stage, seed, seconds, "measure")
        finally:
            stage.clients[0].probe = None
        probe.read()
        probe.cpu_clock = None
        values, info = full_speed_values(
            tally, probe.timeline(since=opened), self.cycle,
            self.ops_per_cycle, len(stage.clients), self.open_loop)
        values["server_rss_mb"] = stage.server.rss_mb()
        info.update(stage.extra.get("info", {}))
        return Measured(tally=tally, values=values,
                        window_seconds=end - start, info=info)

    def audit(self, stage: Stage) -> Dict[str, int]:
        audit_conservation(stage.clients[0])
        return audit_wire(stage.clients[0])


def _licence_picker(seed: int, *scope: object):
    rng = stream(seed, *scope)
    return lambda: LICENSES[rng.randrange(len(LICENSES))]


class RenewMem(Workload):
    name = "renew_mem"
    why = ("1 shard, no data dir, closed loop: net + core do all the work; "
           "codec, dispatch, lock and hop changes show here, WAL/crypto "
           "changes must not")
    op = "renew"

    def drive(self, stage, seed, seconds, phase):
        cycles = []
        for index, client in enumerate(stage.clients):
            pick = _licence_picker(seed, self.name, phase, index)
            slid = stage.slids[index][0]
            cycles.append(lambda tally, c=client, s=slid, p=pick:
                          renew_cycle(c, tally, s, p()))
        return closed_loop(cycles, seconds)


class RenewDurable(RenewMem):
    name = "renew_durable"
    why = ("1 shard, --data-dir --anchor-dir --fsync always, closed loop: "
           "the sealed WAL (AES-CTR + SHA-256 per record) and fsync do "
           "most of the work")
    durable = True


class BatchDurable(Workload):
    name = "batch_durable"
    why = ("durable shard, one renew_batch frame of 16 + 16 returns per "
           "cycle: 16 records under one group fsync; group-commit and "
           "big-frame decode show here and not in renew_durable")
    op = "renew_batch[16]"
    durable = True
    slids_per_client = 16
    cycle = {"renew_batch": 1, "return_units": 16}
    ops_per_cycle = 16

    def drive(self, stage, seed, seconds, phase):
        cycles = []
        for index, client in enumerate(stage.clients):
            pick = _licence_picker(seed, self.name, phase, index)
            slids = stage.slids[index]
            cycles.append(lambda tally, c=client, s=slids, p=pick:
                          batch_cycle(c, tally, [(slid, p()) for slid in s]))
        return closed_loop(cycles, seconds)


class Recover(Workload):
    name = "recover"
    why = ("kill a durable shard holding a fixed 2,000-cycle log, restart "
           "it from a photograph of its disk: unseal + replay instead of "
           "seal + append; log size is reported beside recovery time")
    op = "restart->first renew"
    durable = True
    #: Fixed, and under the 4,096-record compaction threshold, so every
    #: run replays the same number of records.
    build_cycles = 2000
    min_restarts = 3

    def setup(self, sandbox, seed, connections=1):
        # Built over ONE connection so the record stream is the same on
        # every run of a seed.
        return super().setup(sandbox, seed, connections=1)

    def preload(self, stage, seed):
        client, slid = stage.clients[0], stage.slids[0][0]
        pick = _licence_picker(seed, self.name, "build")
        tally = Tally()
        for _ in range(self.build_cycles):
            renew_cycle(client, tally, slid, pick())
        # Leave units in the field: the restarted shard must forfeit
        # exactly these and resurrect none.
        held: Dict[str, int] = {}
        for license_id in LICENSES[:4]:
            reply, _ = client.timed(tally, "renew",
                                    renew_request(slid, license_id),
                                    is_ok_response)
            if reply is not None:
                held[license_id] = reply.granted_units
        if tally.failed:
            raise BenchError(f"log build failures: {tally.notes}")
        audit_conservation(client)
        wire = audit_wire(client)
        # fsync=always: every acknowledged record is on disk.  Let the
        # maintenance tick ratchet the anchor, then photograph both.
        time.sleep(0.2)
        photo_data = stage.data_dir + ".photo"
        photo_anchor = stage.anchor_dir + ".photo"
        shutil.copytree(stage.data_dir, photo_data)
        shutil.copytree(stage.anchor_dir, photo_anchor)
        wal_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(photo_data) for name in names)
        stage.extra.update(held=held, photo_data=photo_data,
                           photo_anchor=photo_anchor, wire=wire,
                           info={"wal_bytes_per_cycle":
                                 wal_bytes / self.build_cycles})

    def measure(self, sandbox, stage, seed, seconds, probe):
        stage.close(sandbox, kill=True)
        tally = Tally()
        restarts: List[Tuple[float, float, float]] = []  # start, end, CPU
        # A restart is one operation seconds long, and nothing here
        # calls anything meanwhile: the probe reads from a thread of
        # its own.
        with probe.in_background():
            rss = self._restarts(sandbox, stage, seed, seconds, tally,
                                 restarts)
        # Every restart's time as it would have read at full speed
        # (load.Timeline); the run record has it as measured too.
        timeline = probe.timeline()
        scaled = [timeline.full_speed(start, end)
                  for start, end, _ in restarts]
        cpus = [cpu * full / (end - start)
                for (start, end, cpu), full in zip(restarts, scaled)]
        values = {"ops_per_s": len(scaled) / sum(scaled),
                  "op_p50_ms": median(scaled) * 1e3,
                  "op_p95_ms": percentile(scaled, 0.95) * 1e3,
                  "server_cpu_ms_per_op": median(cpus) * 1e3,
                  "server_rss_mb": rss}
        info = dict(stage.extra["info"])
        info["restart_seconds"] = tally.latencies
        info["restart_seconds_full_speed"] = scaled
        return Measured(tally=tally, values=values,
                        window_seconds=sum(tally.latencies), info=info)

    def _restarts(self, sandbox, stage, seed, seconds, tally, restarts):
        """Restore, cold-start, renew, audit — until the window is over
        and ``min_restarts`` are done.  Returns the last server's RSS."""
        held = stage.extra["held"]
        names = stream(seed, self.name, "restart-names")
        rss = 0.0
        began = time.perf_counter()
        while (len(restarts) < self.min_restarts
               or time.perf_counter() - began < seconds):
            for photo, live in ((stage.extra["photo_data"], stage.data_dir),
                                (stage.extra["photo_anchor"],
                                 stage.anchor_dir)):
                shutil.rmtree(live)
                shutil.copytree(photo, live)
            start = time.perf_counter()
            server = sandbox.spawn(stage.flags)
            client = Client(
                server.address,
                f"bench-recover-{names.getrandbits(32):08x}")
            try:
                slid = client.init()
                license_id = LICENSES[len(restarts) % len(LICENSES)]
                reply, end = client.timed(
                    tally, "renew", renew_request(slid, license_id),
                    is_ok_response)
                if reply is None:
                    raise BenchError(
                        f"a restart served no renewal: {tally.notes}")
                tally.samples.append((end, end - start, 1))
                restarts.append((start, end, server.cpu_seconds()))
                rss = server.rss_mb()
                client.timed(tally, "return_units",
                             (slid, license_id, reply.granted_units),
                             is_ok_status)
                audit_conservation(client, expect_lost=held)
                audit_wire(client)
            finally:
                client.close()
                sandbox.retire(server, kill=True)
        return rss

    def audit(self, stage):
        # Every restart was audited inside the window; the build's
        # server is gone.
        return stage.extra["wire"]


class EnrollQuorum(Workload):
    name = "enroll_quorum"
    why = ("3 shards, 1 replica, quorum 1, no data dir, fixed work of "
           "init->shutdown cycles over a 2,000-SLID table: identity writes "
           "gated on follower acks; only here net.replication dominates")
    op = "init (quorum-gated)"
    fleet = True
    cycle = {"init": 1, "shutdown": 1}
    preload_slids = 2000
    #: Fixed work, not fixed time, so the identity table grows along the
    #: same trajectory on both sides of a comparison.
    cycles_per_second = 400

    def _cycles(self, stage, seed, phase, total):
        cycles = []
        for index, client in enumerate(stage.clients):
            keys = stream(seed, self.name, phase, index)
            cycles.append(lambda tally, c=client, k=keys:
                          enroll_cycle(c, tally, k.getrandbits(62)))
        return closed_loop(cycles, rounds=total // len(stage.clients))

    def preload(self, stage, seed):
        tally, _, _ = self._cycles(stage, seed, "preload", self.preload_slids)
        if tally.failed:
            raise BenchError(f"preload failures: {tally.notes}")

    def drive(self, stage, seed, seconds, phase):
        return self._cycles(stage, seed, phase,
                            int(self.cycles_per_second * seconds))

    def warm_up(self, stage, seed):
        """The preload already ran 2,000 cycles through every layer."""


class PacedFleet(Workload):
    name = "paced_fleet"
    why = ("3 durable shards, 1 replica, quorum 1, OPEN loop at a fixed 60 "
           "cycles/s timed from the due time: the production shape; the "
           "only place queueing and replication back-pressure show")
    op = "renew (from due time)"
    durable = True
    fleet = True
    slids_per_client = 4
    rate = 60.0
    open_loop = True
    #: The driver is valid only while it sends on time: at p95 — the
    #: percentile the latency tail is gated at — the lateness it causes
    #: itself stays within 5 % of the inter-arrival gap.
    late_share = 0.05

    def drive(self, stage, seed, seconds, phase):
        slids = [slid for owned in stage.slids for slid in owned]
        rng = stream(seed, self.name, phase)
        order = [slids[rng.randrange(len(slids))]
                 for _ in range(int(self.rate * seconds))]
        paced = open_loop(
            stage.clients, self.rate, seconds,
            lambda k: (order[k], LICENSES[k % len(LICENSES)]))
        gap = 1.0 / self.rate
        late_p95 = percentile(paced.late_driver, 0.95)
        tenth = max(1, len(paced.late) // 10)
        tail = sum(paced.late[-tenth:]) / tenth
        before = sum(paced.late[-2 * tenth:-tenth]) / tenth
        if phase == "measure":
            stage.extra["info"] = {
                "driver_late_p95_ms": late_p95 * 1e3,
                "driver_late_p99_ms":
                    percentile(paced.late_driver, 0.99) * 1e3,
                "send_late_p99_ms": percentile(paced.late, 0.99) * 1e3,
            }
            if late_p95 > self.late_share * gap:
                raise BenchError(
                    f"driver fell behind its schedule: p95 lateness "
                    f"{late_p95 * 1e3:.3f} ms > {self.late_share:.0%} of the "
                    f"{gap * 1e3:.1f} ms gap")
            if tail > gap and tail > before:
                raise BenchError("backlog still growing at the end of the "
                                 "window")
        return paced.tally, paced.start, paced.start + seconds


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (RenewMem(), RenewDurable(), BatchDurable(), Recover(),
                     EnrollQuorum(), PacedFleet())
}
