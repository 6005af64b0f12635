"""The traced run: a real-socket pass and an in-process layer walk.

Part 1 drives the workload's server over ONE connection with a span
round every ``endpoint.call`` and reads the server's wire counters
before and after.  Part 2 builds the same server in this process and
replays the same seeded request stream single-threaded as
``encode_request -> decode_request_envelope -> handler ->
encode_response -> decode_reply``, with timing wrappers on the entry
points of the layers below.  ``net.aio.hop_us`` is what the socket call
costs beyond the walked work: sockets, event loop, executor hop.

A layer a workload does not touch reports 0 for that workload.
"""

from __future__ import annotations

import copy
import os
import shutil
import time
from typing import Dict, List, Tuple

from repro.core.sl_remote import SlRemote
from repro.crypto.aes import aes128_ctr_encrypt
from repro.net import codec
from repro.net.replication import FollowerStore, ReplicationSource
from repro.net.sharding import ShardedRemote
from repro.net.transport import HandlerTable
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.storage.anchor import FreshnessAnchor
from repro.storage.wal import (
    ShardPersistence,
    WriteAheadLog,
    attach_persistence,
)

import harness
from harness import LICENSES, POOL_UNITS, BenchError, Sandbox
from load import (
    SpeedProbe,
    Client,
    audit_conservation,
    audit_wire,
    median,
)
from spans import Tracer
from workloads import Stage, Workload

#: (name, unit, better).  The unit of every timing is microseconds.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("net.transport.renew_call_us", "us", "lower"),
    ("net.transport.return_call_us", "us", "lower"),
    ("net.transport.batch_call_us", "us", "lower"),
    ("net.transport.init_call_us", "us", "lower"),
    ("net.aio.hop_us", "us", "lower"),
    ("net.aio.bytes_in_per_renewal", "B", "lower"),
    ("net.aio.bytes_out_per_renewal", "B", "lower"),
    ("net.aio.frames_per_renewal", "count", "lower"),
    ("net.aio.frames_rejected", "count", "lower"),
    ("net.codec.encode_request_us", "us", "lower"),
    ("net.codec.decode_request_us", "us", "lower"),
    ("net.codec.encode_response_us", "us", "lower"),
    ("net.codec.decode_reply_us", "us", "lower"),
    ("core.sl_remote.renew_self_us", "us", "lower"),
    ("core.sl_remote.return_self_us", "us", "lower"),
    ("core.sl_remote.batch_self_us_per_member", "us", "lower"),
    ("core.sl_remote.init_us", "us", "lower"),
    ("core.sl_remote.shutdown_us", "us", "lower"),
    ("core.renewal.evaluate_us", "us", "lower"),
    ("storage.wal.append_self_us", "us", "lower"),
    ("storage.wal.sync_us", "us", "lower"),
    ("storage.wal.records_per_renewal", "count", "lower"),
    ("storage.wal.fsyncs_per_renewal", "count", "lower"),
    ("storage.wal.bytes_per_record", "B", "lower"),
    ("storage.wal.bytes_per_cycle", "B", "lower"),
    ("storage.wal.compact_us", "us", "lower"),
    ("storage.wal.replay_us_per_record", "us", "lower"),
    ("storage.wal.read_us_per_record", "us", "lower"),
    ("crypto.seal_us_per_record", "us", "lower"),
    ("crypto.unseal_us_per_record", "us", "lower"),
    ("crypto.aes_ctr_us_per_block", "us", "lower"),
    ("storage.anchor.advance_us", "us", "lower"),
    ("net.replication.flush_us_per_delta", "us", "lower"),
    ("net.replication.snapshot_us", "us", "lower"),
    ("net.replication.snapshot_us_per_slid", "us", "lower"),
    ("net.replication.quorum_wait_us", "us", "lower"),
    ("net.replication.apply_us_per_delta", "us", "lower"),
    ("net.replication.backpressure_share", "share", "lower"),
    ("net.sharding.route_us", "us", "lower"),
    ("walk.call_us", "us", "lower"),
    ("trace.overhead_us_per_cycle", "us", "lower"),
]

#: Shares of ``--seconds`` given to the socket pass and to the walk.
SOCKET_SHARE, WALK_SHARE = 0.35, 0.4
#: The calls that open a cycle.  Every fourth cycle is walked with the
#: wrappers idle: interleaved, so both kinds see the same machine, the
#: idle cycles give the walked cost and the difference prices tracing.
PRIMARY_METHODS = ("renew", "renew_batch", "init")
UNTRACED_EVERY = 4


def install(tracer: Tracer) -> None:
    """Timing wrappers round the entry points the walk does not call
    itself.  Class-level, so install before building the server."""
    for attribute in ("handle_renew", "handle_renew_batch", "return_units",
                      "handle_init", "handle_shutdown"):
        tracer.patch_method(f"core.sl_remote.{attribute}", SlRemote, attribute)
    tracer.patch_function("core.renewal.evaluate", "repro.core.renewal",
                          "renew_lease_inplace")
    tracer.patch_method("storage.wal.append", WriteAheadLog, "append")
    tracer.patch_method("storage.wal.sync", WriteAheadLog, "sync")
    tracer.patch_method("storage.wal.read", WriteAheadLog, "read")
    tracer.patch_method("storage.wal.compact", ShardPersistence, "compact")
    tracer.patch_method("storage.wal.recover", ShardPersistence, "recover")
    tracer.patch_function("crypto.aes_ctr", "repro.crypto.aes",
                          "aes128_ctr_encrypt")
    tracer.patch_function("crypto.sha256", "repro.crypto.hashes",
                          "sha256_digest")
    tracer.patch_function("crypto.unseal", "repro.crypto.sealing", "validate")
    tracer.patch_method("storage.anchor.advance", FreshnessAnchor, "advance")
    tracer.patch_method("net.replication.flush", ReplicationSource,
                        "flush_now")
    tracer.patch_method("net.replication.snapshot", ReplicationSource,
                        "snapshot_now")
    tracer.patch_method("net.replication.quorum_wait", ReplicationSource,
                        "wait_identity_quorum")
    tracer.patch_method("net.replication.apply", FollowerStore, "apply_batch",
                        weight=lambda store, batch, **kw: len(batch.deltas))


class InProcess:
    """The workload's server, built in this process like the CLI does."""

    def __init__(self, workload: Workload, sandbox: Sandbox) -> None:
        ras = RemoteAttestationService(accept_any_platform=True)
        data_dir = sandbox.fresh_dir("walk-data") if workload.durable else None
        self.persistences: List[ShardPersistence] = []
        if workload.fleet:
            self.remote = ShardedRemote(ras, shards=3, replicas=1, quorum=1,
                                        data_dir=data_dir, fsync="always")
            self.remote.start_replication()
            self.persistences = list(self.remote.persistences.values())
        else:
            self.remote = SlRemote(ras)
            if data_dir is not None:
                self.persistences = attach_persistence(
                    self.remote, data_dir, fsync="always",
                    anchor_dir=sandbox.fresh_dir("walk-anchor"))
        for license_id in LICENSES:
            self.remote.issue_license(license_id, POOL_UNITS)
        self.table = HandlerTable(self.remote.protocol_handlers())

    def wal_counts(self) -> Tuple[int, int]:
        return (sum(p.wal.append_count for p in self.persistences),
                sum(p.wal.fsync_count for p in self.persistences))

    def close(self) -> None:
        if isinstance(self.remote, ShardedRemote):
            self.remote.close()  # replication first, then its own logs
        else:
            for persistence in self.persistences:
                persistence.close()


class WalkClient(Client):
    """A :class:`~load.Client` whose ``call`` walks the layers in this
    process instead of crossing a socket, so the same workload code
    drives both passes."""

    def __init__(self, server: InProcess, tracer: Tracer, name: str) -> None:
        self.machine = SgxMachine(name)
        self.report = self.machine.local_authority.generate_report(
            1, 1, nonce=1)
        self.server = server
        self.tracer = tracer
        self.calls = 0
        self.cycles = 0
        #: (method, traced?) -> (start, end) of every walked call.
        self.durations: Dict[Tuple[str, bool],
                             List[Tuple[float, float]]] = {}

    def call(self, method: str, payload: object):
        tracer = self.tracer
        self.calls += 1
        if method in PRIMARY_METHODS:
            self.cycles += 1
            tracer.enabled = self.cycles % UNTRACED_EVERY != 0
        start = time.perf_counter()
        try:
            return self._walk(method, payload)
        finally:
            self.durations.setdefault((method, tracer.enabled), []).append(
                (start, time.perf_counter()))

    def timings(self, method: str, traced: bool) -> List[float]:
        """Seconds per walked call, at full speed."""
        timeline = self.tracer.probe.timeline()
        return [timeline.full_speed(start, end)
                for start, end in self.durations.get((method, traced), [])]

    def _walk(self, method: str, payload: object):
        tracer = self.tracer
        tracer.begin_op(method)
        with tracer.span("walk.call"):
            with tracer.span("net.codec.encode_request"):
                frame = codec.encode_request(method, payload, self.calls,
                                             version=codec.WIRE_V3)
            with tracer.span("net.codec.decode_request"):
                name, body, request_id, _meta = (
                    codec.decode_request_envelope(frame))
            with tracer.span("handler"):
                reply = self.server.table.dispatch(
                    name, body, clock=self.machine.clock,
                    stats=self.machine.stats)
            with tracer.span("net.codec.encode_response"):
                answer = codec.encode_response(reply, request_id,
                                               version=codec.WIRE_V3)
            with tracer.span("net.codec.decode_reply"):
                return codec.decode_reply(answer).deliver()

    def close(self) -> None:
        pass


def _traced_variant(workload: Workload) -> Workload:
    """The same workload, sized for a run that spends its time twice
    (socket pass and walk): per-record and per-call medians do not need
    the full log or the full window."""
    variant = copy.copy(workload)
    if workload.name == "recover":
        variant.build_cycles = 400
        variant.min_restarts = 1
    return variant


def _us(values: List[float]) -> float:
    return median(values) * 1e6 if values else 0.0


def _full_speed(tracer: Tracer, start: float) -> float:
    """Seconds since ``start``, at full speed."""
    return tracer.probe.timeline().full_speed(start, time.perf_counter())


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    workload = _traced_variant(workload)
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    info: Dict[str, object] = {}
    # Both passes run in this thread, so the probe reads from one of its
    # own, and every span is reported at full speed (load.Timeline).
    tracer.probe = SpeedProbe()
    with Sandbox() as sandbox, tracer.probe.in_background():
        try:
            attempted, failed = _socket_pass(
                workload, sandbox, tracer, seed, seconds * SOCKET_SHARE,
                values, info)
            install(tracer)
            _layer_walk(workload, sandbox, tracer, seed, seconds, values, info)
        finally:
            tracer.uninstall()
            os.makedirs(harness.OUT_DIR, exist_ok=True)
            info["spans_written"] = tracer.write(os.path.join(
                harness.OUT_DIR, f"{workload.name}-seed{seed}-spans.jsonl"))
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (value, units[name])
                        for name, value in values.items()},
            "info": info}


# ----------------------------------------------------------------------
# Part 1: one connection over a real socket
# ----------------------------------------------------------------------
def _socket_pass(workload: Workload, sandbox: Sandbox, tracer: Tracer,
                 seed: int, seconds: float, values: Dict[str, float],
                 info: Dict[str, object]) -> Tuple[int, int]:
    Client.on_call = lambda method, start, end: tracer.add(
        f"net.transport.{method}", start, end)
    try:
        stage = workload.setup(sandbox, seed, connections=1)
        client = stage.clients[0]
        before = audit_wire(client)
        if workload.name == "recover":
            # The build was the pass; one restart proves the photograph.
            measured = workload.measure(sandbox, stage, seed, 0.0,
                                        tracer.probe)
            tally, after = measured.tally, before
            values["storage.wal.bytes_per_cycle"] = (
                measured.info["wal_bytes_per_cycle"])
            info["photo_data"] = stage.extra["photo_data"]
            info["photo_anchor"] = stage.extra["photo_anchor"]
        else:
            tally, _, _ = workload.drive(stage, seed, seconds, "trace")
            after = audit_wire(client)
    finally:
        Client.on_call = None
    if not tally.ok_ops:
        raise BenchError(f"socket pass: nothing succeeded: {tally.notes}")
    renewals = tally.ok_ops
    for method, metric in (("renew", "renew"), ("return_units", "return"),
                           ("renew_batch", "batch"), ("init", "init")):
        rows = tracer.rows(f"net.transport.{method}")
        values[f"net.transport.{metric}_call_us"] = _us(
            [row["duration"] for row in rows])
    if workload.name not in ("enroll_quorum", "recover"):
        # The second _server_stats request is inside the delta; its
        # reply is not, but the first one's is: one frame each way.
        frames = after["frames_decoded"] - before["frames_decoded"] - 1
        values["net.aio.frames_per_renewal"] = frames / renewals
        values["net.aio.bytes_in_per_renewal"] = (
            after["bytes_decoded"] - before["bytes_decoded"]) / renewals
        values["net.aio.bytes_out_per_renewal"] = (
            after["bytes_encoded"] - before["bytes_encoded"]) / renewals
    values["net.aio.frames_rejected"] = after["frames_rejected"]
    if workload.fleet and workload.name != "enroll_quorum":
        refused = after["exhausted_served"] - before["exhausted_served"]
        values["net.replication.backpressure_share"] = refused / max(
            1, tally.attempted // 2)
    if workload.name != "recover":  # its measure() audited and closed it
        audit_conservation(client)
        stage.close(sandbox)
    return tally.attempted, tally.failed


# ----------------------------------------------------------------------
# Part 2: the same requests, walked through the layers in-process
# ----------------------------------------------------------------------
def _layer_walk(workload: Workload, sandbox: Sandbox, tracer: Tracer,
                seed: int, seconds: float, values: Dict[str, float],
                info: Dict[str, object]) -> None:
    if workload.name == "recover":
        _walk_recovery(tracer, sandbox, values, info)
        return
    server = InProcess(workload, sandbox)
    try:
        client = WalkClient(server, tracer, f"walk-{workload.name}-{seed}")
        stage = Stage(server=None, clients=[client],
                      slids=[[client.init()
                              for _ in range(workload.slids_per_client)]])
        workload.preload(stage, seed)
        appends, fsyncs = server.wal_counts()
        client.durations.clear()
        tally, _, _ = workload.drive(stage, seed, seconds * WALK_SHARE,
                                     "trace")
        tracer.enabled = True
        if tally.failed or not tally.ok_ops:
            raise BenchError(f"layer walk failures: {tally.notes}")
        renewals = tally.ok_ops
        after_appends, after_fsyncs = server.wal_counts()
        _walk_metrics(workload, tracer, client, values)
        if server.persistences:
            values["storage.wal.records_per_renewal"] = (
                (after_appends - appends) / renewals)
            values["storage.wal.fsyncs_per_renewal"] = (
                (after_fsyncs - fsyncs) / renewals)
            _storage_probes(server, tracer, values)
        if workload.name == "enroll_quorum":
            _snapshot_probe(server, tracer, values)
        audit_conservation(client)
    finally:
        server.close()


def _walk_metrics(workload: Workload, tracer: Tracer, client: WalkClient,
                  values: Dict[str, float]) -> None:
    primary = {"batch_durable": "renew_batch",
               "enroll_quorum": "init"}.get(workload.name, "renew")
    members = 16 if primary == "renew_batch" else 1
    # The walked call, from the cycles walked with the wrappers idle.
    walked = _us(client.timings(primary, False))
    call_metric = {"renew_batch": "batch", "init": "init"}.get(primary, "renew")
    values["walk.call_us"] = walked
    values["net.aio.hop_us"] = (
        values[f"net.transport.{call_metric}_call_us"] - walked)
    if workload.name != "paced_fleet":  # too few cycles at 60/s to price it
        overhead = 0.0
        cycles = len(client.durations[(primary, True)])
        for method, traced in client.durations:
            plain = client.timings(method, False)
            if traced and plain:
                timings = client.timings(method, True)
                overhead += ((median(timings) - median(plain))
                             * len(timings) / cycles)
        values["trace.overhead_us_per_cycle"] = overhead * 1e6
    for stage in ("encode_request", "decode_request", "encode_response",
                  "decode_reply"):
        rows = tracer.rows(f"net.codec.{stage}", method=primary)
        values[f"net.codec.{stage}_us"] = _us(
            [row["duration"] / members for row in rows])

    def self_us(name: str, per: int = 1) -> float:
        return _us([row["self"] / per for row in tracer.rows(name)])

    def span_us(name: str) -> float:
        return _us([row["duration"] for row in tracer.rows(name)])

    values["core.sl_remote.renew_self_us"] = self_us(
        "core.sl_remote.handle_renew")
    values["core.sl_remote.return_self_us"] = self_us(
        "core.sl_remote.return_units")
    values["core.sl_remote.batch_self_us_per_member"] = self_us(
        "core.sl_remote.handle_renew_batch", per=16)
    if workload.name == "enroll_quorum":
        values["core.sl_remote.init_us"] = self_us("core.sl_remote.handle_init")
        values["core.sl_remote.shutdown_us"] = self_us(
            "core.sl_remote.handle_shutdown")
    values["core.renewal.evaluate_us"] = span_us("core.renewal.evaluate")
    values["storage.wal.append_self_us"] = self_us("storage.wal.append")
    values["storage.wal.sync_us"] = span_us("storage.wal.sync")
    # Seal = the AES-CTR and SHA-256 calls made under an append.
    appends = len(tracer.rows("storage.wal.append"))
    if appends:
        sealing = sum(row["duration"]
                      for name in ("crypto.aes_ctr", "crypto.sha256")
                      for row in tracer.rows(name)
                      if row["parent"] == "storage.wal.append")
        values["crypto.seal_us_per_record"] = sealing / appends * 1e6
    values["storage.anchor.advance_us"] = span_us("storage.anchor.advance")
    if workload.fleet:
        # The routed handler minus what ran inside the owning shard.
        values["net.sharding.route_us"] = _us(
            [row["self"] for row in tracer.rows("handler", method=primary)])
        values["net.replication.quorum_wait_us"] = span_us(
            "net.replication.quorum_wait")
        applied = tracer.rows("net.replication.apply")
        deltas = sum(row["weight"] for row in applied)
        if deltas:
            values["net.replication.apply_us_per_delta"] = (
                sum(row["duration"] for row in applied) / deltas * 1e6)
            flushes = tracer.rows("net.replication.flush")
            values["net.replication.flush_us_per_delta"] = (
                sum(row["duration"] for row in flushes) / deltas * 1e6)


def _storage_probes(server: InProcess, tracer: Tracer,
                    values: Dict[str, float]) -> None:
    """Log density, one compaction, and raw AES-CTR speed."""
    wals = [persistence.wal for persistence in server.persistences]
    records = sum(wal.appends_since_reset for wal in wals)
    if records:
        size = sum(os.path.getsize(wal.path) for wal in wals)
        values["storage.wal.bytes_per_record"] = size / records
    before = len(tracer.rows("storage.wal.compact"))
    server.persistences[0].compact()
    values["storage.wal.compact_us"] = _us(
        [row["duration"]
         for row in tracer.rows("storage.wal.compact")[before:]])
    block = bytes(4096)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        aes128_ctr_encrypt(block, bytes(16), bytes(8))
        timings.append(_full_speed(tracer, start) / (len(block) // 16))
    values["crypto.aes_ctr_us_per_block"] = _us(timings)


def _snapshot_probe(server: InProcess, tracer: Tracer,
                    values: Dict[str, float]) -> None:
    """Anti-entropy snapshot cost at the preloaded identity-table size."""
    home = server.remote.home_shard
    source = server.remote.managers[server.remote.router.home].source
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        source.snapshot_now()
        timings.append(_full_speed(tracer, start))
    values["net.replication.snapshot_us"] = _us(timings)
    values["net.replication.snapshot_us_per_slid"] = (
        _us(timings) / len(home._clients))


def _walk_recovery(tracer: Tracer, sandbox: Sandbox,
                   values: Dict[str, float], info: Dict[str, object]) -> None:
    """Read, unseal and replay the socket pass's photograph in-process."""
    data_dir = sandbox.fresh_dir("walk-recover") + "-data"
    anchor_dir = data_dir + "-anchor"
    shutil.copytree(info.pop("photo_data"), data_dir)
    shutil.copytree(info.pop("photo_anchor"), anchor_dir)
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    tracer.begin_op("recover")
    persistences = attach_persistence(remote, data_dir, fsync="always",
                                      anchor_dir=anchor_dir)
    try:
        report = persistences[0].last_report
        records = report.records_replayed
        if not records:
            raise BenchError("the photograph replayed no records")
        recover = tracer.rows("storage.wal.recover")[0]
        read = tracer.rows("storage.wal.read")[0]
        unseal = tracer.rows("crypto.unseal")
        values["storage.wal.replay_us_per_record"] = (
            recover["self"] / records * 1e6)
        values["storage.wal.read_us_per_record"] = (
            read["self"] / records * 1e6)
        values["crypto.unseal_us_per_record"] = (
            sum(row["duration"] for row in unseal) / len(unseal) * 1e6)
        values["storage.wal.compact_us"] = _us(
            [row["duration"] for row in tracer.rows("storage.wal.compact")])
        values["storage.wal.bytes_per_record"] = (
            report.bytes_replayed / records)
        info["records_replayed"] = records
    finally:
        for persistence in persistences:
            persistence.close()
