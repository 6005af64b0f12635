"""Command-line interface for the SecureLease reproduction.

Gives the repository a binary-like entry point::

    python -m repro.cli run bfs                 # run one workload end to end
    python -m repro.cli partition hashjoin      # show a partitioning decision
    python -m repro.cli attack keyvalue         # CFB attack + defence story
    python -m repro.cli fleet --nodes 4         # multi-node lease distribution
    python -m repro.cli workloads               # list the Table 4 workloads
    python -m repro.cli serve-remote --port 4870 --license lic-demo:100000
                                                # run SL-Remote as a TCP server

Every simulation command is deterministic given ``--seed``
(``serve-remote`` talks to the real network and is not).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from typing import List, Optional

# Each cmd_* imports what it runs: a restarted lease server is mostly
# ``import``, and it executes none of the attack, partition or workload
# trees the simulation commands need.


def _print_kv(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        print(f"  {key.ljust(width)}  {value}")


def cmd_workloads(_args) -> int:
    from repro.workloads import WORKLOAD_CLASSES

    print("Table 4 workloads:")
    for cls in WORKLOAD_CLASSES:
        billing = "per-call" if cls.per_call_billing else "per-run"
        print(f"  {cls.name:12s} license={cls.license_id:24s} "
              f"keys={', '.join(cls.key_function_names):30s} [{billing}]")
    return 0


def _endpoint_with_batch_window(endpoint: Optional[str],
                                batch_window: Optional[float]) -> Optional[str]:
    """Fold ``--batch-window`` into an endpoint URL's query."""
    if endpoint is None or batch_window is None:
        return endpoint
    separator = "&" if "?" in endpoint else "?"
    return f"{endpoint}{separator}batch_window={batch_window}"


def cmd_run(args) -> int:
    from repro.deployment import SecureLeaseDeployment
    from repro.workloads import get_workload

    workload = get_workload(args.workload, seed=args.seed)
    endpoint = _endpoint_with_batch_window(args.endpoint, args.batch_window)
    deployment = SecureLeaseDeployment(seed=args.seed,
                                       tokens_per_attestation=args.tokens,
                                       transport=args.transport,
                                       endpoint=endpoint)
    blob = deployment.issue_license(workload.license_id,
                                    total_units=args.units)
    run = deployment.run_workload(workload, scale=args.scale,
                                  license_blob=blob)
    print(f"Workload {workload.name!r} under SecureLease:")
    _print_kv([
        ("result", run.result),
        ("lease checks", run.lease_checks),
        ("local attestations", run.local_attestations),
        ("remote attestations", run.remote_attestations),
        ("virtual time", f"{run.cycles / 2.9e9 * 1e3:.3f} ms @ 2.9 GHz"),
    ])
    return 0 if run.result.get("status") == "OK" else 1


def cmd_partition(args) -> int:
    from repro.partition import (
        GlamdringPartitioner,
        PartitionEvaluator,
        SecureLeasePartitioner,
    )
    from repro.workloads import get_workload

    workload = get_workload(args.workload, seed=args.seed)
    run = workload.run_profiled(scale=args.scale)
    evaluator = PartitionEvaluator()
    print(f"Partitioning {workload.name!r} "
          f"({len(run.program.functions)} functions, "
          f"{run.profile.total_instructions:,} dynamic instructions):\n")
    for partitioner in (SecureLeasePartitioner(), GlamdringPartitioner()):
        partition = partitioner.partition(run.program, run.graph, run.profile)
        report = evaluator.evaluate(run.program, run.graph, run.profile,
                                    partition)
        print(f"[{partitioner.name}]")
        _print_kv([
            ("migrated", ", ".join(sorted(partition.trusted))),
            ("static coverage", f"{report.static_coverage_bytes / 1024:.1f} KB "
             f"({report.static_coverage_fraction:.1%} of the binary)"),
            ("dynamic coverage", f"{report.dynamic_coverage:.1%}"),
            ("enclave memory", f"{report.trusted_memory_bytes / (1 << 20):.1f} MB"),
            ("EPC faults", report.epc_faults),
            ("boundary calls", report.ecalls + report.ocalls),
            ("slowdown vs vanilla", f"{report.slowdown:.2f}x"),
        ])
        print()
    return 0


def cmd_attack(args) -> int:
    from repro.attacks.cfb import (
        BranchFlipAttack,
        analyze_cfg_diff,
        run_cfb_attack,
    )
    from repro.partition import SecureLeasePartitioner
    from repro.sgx import SgxMachine
    from repro.workloads import get_workload

    workload = get_workload(args.workload, seed=args.seed)
    program = workload.build_program(scale=args.scale)
    analysis = analyze_cfg_diff(program, workload.valid_license_blob(),
                                b"pirated")
    print(f"CFG-diff analysis of {workload.name!r}: "
          f"auth branch candidates = {analysis.divergent_branches}")

    unprotected = workload.build_program(scale=args.scale)
    outcome = run_cfb_attack(
        unprotected, BranchFlipAttack(analysis.divergent_branches), b"pirated"
    )
    print(f"\nUnprotected binary: attack succeeded = {outcome.succeeded}")

    profiled = workload.run_profiled(scale=args.scale)
    partition = SecureLeasePartitioner().partition(
        profiled.program, profiled.graph, profiled.profile
    )
    machine = SgxMachine("victim")
    hardened = workload.build_program(scale=args.scale)
    defended = run_cfb_attack(
        hardened, BranchFlipAttack(analysis.divergent_branches), b"pirated",
        placement=partition.placement(hardened),
        enclave=machine.create_enclave("hardened"),
        lease_checker=lambda lic: False,
    )
    print(f"SecureLease binary: attack succeeded = {defended.succeeded} "
          f"(denied by enclave = {defended.denied_by_enclave})")
    return 0 if not defended.succeeded else 1


def cmd_fleet(args) -> int:
    from repro.cluster import Cluster, NodeSpec

    endpoint = _endpoint_with_batch_window(args.endpoint, args.batch_window)
    cluster = Cluster(seed=args.seed, transport=args.transport,
                      shards=args.shards, endpoint=endpoint)
    cluster.issue_license("lic-fleet", args.units)
    healths = [1.0, 0.95, 0.8, 0.6]
    for index in range(args.nodes):
        cluster.add_node(NodeSpec(
            f"node-{index}",
            health=healths[index % len(healths)],
            network_reliability=1.0 if index % 2 == 0 else 0.6,
        ))
    served = cluster.run_checks("lic-fleet", checks_per_node=args.checks)
    print(f"Fleet of {args.nodes} nodes sharing a "
          f"{args.units:,}-unit license:\n")
    outstanding = cluster.outstanding("lic-fleet")
    for name in served:
        node = cluster.nodes[name]
        print(f"  {name:8s} served={served[name]:5d} "
              f"outstanding={outstanding[name]:6d} "
              f"(health={node.spec.health}, "
              f"net={node.spec.network_reliability})")
    ledger = cluster.remote.ledger("lic-fleet")
    print(f"\n  pool available: {ledger.available:,}  "
          f"lost: {ledger.lost_units:,}  "
          f"expected loss: {cluster.expected_loss('lic-fleet'):.0f}")
    print(f"  pool conserved: "
          f"{cluster.pool_conserved('lic-fleet', args.units)}")
    return 0


def _parse_license_spec(spec: str):
    """Parse ``id:units[:kind[:tick_seconds]]`` for serve-remote."""
    from repro.core.gcl import LeaseKind

    parts = spec.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"license spec {spec!r} must look like id:units[:kind[:tick]]"
        )
    license_id, units = parts[0], int(parts[1])
    kind = LeaseKind(parts[2]) if len(parts) > 2 else LeaseKind.COUNT
    tick_seconds = float(parts[3]) if len(parts) > 3 else 0.0
    return license_id, units, kind, tick_seconds


def _parse_shard_of(spec: str):
    """Parse ``--shard-of I:N`` (also accepts ``I/N``)."""
    separator = ":" if ":" in spec else "/"
    try:
        index_text, count_text = spec.split(separator, 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"--shard-of {spec!r} must look like I:N (e.g. 0:4)"
        ) from None
    if not 0 <= index < count:
        raise ValueError(f"--shard-of index {index} out of range for {count}")
    return index, count


def _parse_fleet(spec: str):
    """Parse ``--fleet NAME=HOST:PORT,NAME=HOST:PORT,...``."""
    members = {}
    for part in spec.split(","):
        if "=" not in part or ":" not in part.split("=", 1)[1]:
            raise ValueError(
                f"--fleet member {part!r} must look like NAME=HOST:PORT"
            )
        name, address = part.split("=", 1)
        host, port_text = address.rsplit(":", 1)
        members[name] = (host, int(port_text))
    return members


def cmd_serve_remote(args) -> int:
    """Run SL-Remote as a real TCP server (the vendor-side process).

    Three shapes:

    * default — one SL-Remote, per-license locking;
    * ``--shards N`` — N in-process shards behind one port (a
      consistent-hash ring partitions the license ledgers);
    * ``--shard-of I:N`` — this process *is* shard I of an N-shard
      fleet: it issues only the licenses the ring assigns to it, and
      expects clients to route through ``sl+sharded://`` endpoints
      (which mirror SLIDs and crash write-offs across the fleet).

    ``--replicas K --fleet NAME=HOST:PORT,...`` additionally streams
    this shard's license state to its K ring-successor followers and
    mounts the replication surface (``replicate``/``sync_snapshot``/
    ``bootstrap``/``promote``/``replication_probe``) so clients can
    fail the fleet over when primaries die.  ``--quorum`` (default: a
    majority of the replica group) holds identity acks until that many
    followers have confirmed the escrow deltas; with ``--data-dir``
    cold followers are re-seeded by WAL-shipped bootstrap instead of
    in-memory snapshots.
    """
    # What this shape runs loads before the listening marker — never
    # for the first time on a request path — and what it does not run
    # does not load at all.
    from repro.core.sl_remote import SlRemote
    from repro.sgx.attestation import RemoteAttestationService

    in_process_shards = args.shards > 1 and not args.shard_of
    if args.shard_of or in_process_shards:
        from repro.net.replication import ReplicationManager, TcpPeerLink
        from repro.net.sharding import (
            HashRing,
            ShardedRemote,
            default_shard_names,
        )
    if args.data_dir:
        from repro.storage.anchor import StaleImageError
        from repro.storage.wal import attach_persistence
    else:
        StaleImageError = ()  # no image on disk, none to refuse

    ras = RemoteAttestationService(
        accept_any_platform=args.accept_any_platform
    )
    for secret in args.platform_secret:
        ras.register_platform(int(secret, 0))

    owned_licenses = None  # None: this process owns every license
    manager = None
    persistences = []
    admission = args.admission != "off"
    autotune_lag = bool(args.autotune_lag)
    durability = dict(anchor_dir=args.anchor_dir or None, fsync=args.fsync,
                      compact_every=args.compact_every)

    @contextlib.contextmanager
    def refusing_stale_images():
        try:
            yield  # recovery: a rolled-back image ends the process here
        except StaleImageError as exc:
            # Exact marker line: the red-team harness greps it to prove
            # the rollback was *refused* rather than silently served.
            print(f"SL-Anchor {exc.name}: {exc}", flush=True)
            raise SystemExit(3)

    if args.shard_of:
        index, count = _parse_shard_of(args.shard_of)
        names = (args.ring.split(",") if args.ring
                 else default_shard_names(count))
        if len(names) != count:
            raise SystemExit(
                f"--ring names {len(names)} shards, --shard-of says {count}"
            )
        ring = HashRing(names)
        shard_name = names[index]
        owned_licenses = lambda lid: ring.shard_for(lid) == shard_name  # noqa: E731
        remote = SlRemote(ras, admission=admission, autotune_lag=autotune_lag)
        print(f"shard {shard_name} ({index + 1} of {count})", flush=True)
        if args.data_dir:
            # Recover before replication starts so the source streams
            # (and the journal observer sees) the recovered state.
            with refusing_stale_images():
                persistences = attach_persistence(
                    remote, args.data_dir, name=shard_name, **durability)
        if args.replicas > 0:
            if not args.fleet:
                raise SystemExit("--replicas needs --fleet NAME=HOST:PORT,...")
            members = _parse_fleet(args.fleet)
            unknown = set(members) - set(names)
            if unknown:
                raise SystemExit(
                    f"--fleet names {sorted(unknown)} not on the ring"
                )
            peers = {
                name: TcpPeerLink(host, port)
                for name, (host, port) in members.items()
                if name != shard_name
            }

            depth = min(args.replicas, count - 1)
            quorum = (args.quorum if args.quorum is not None
                      else (depth + 1) // 2)

            def followers_for(license_id, _ring=ring, _depth=depth):
                return _ring.owners(license_id, _depth + 1)[1:]

            def owners_for(license_id, _ring=ring):
                return _ring.owners(license_id, len(_ring))

            manager = ReplicationManager(
                remote, shard_name, peers=peers,
                followers_for=followers_for, owners_for=owners_for,
                quorum=quorum,
                lag_budget_units=args.lag_budget,
                lag_budget_grants=args.lag_grants,
                persistence=persistences[0] if persistences else None,
            )
            manager.start()
            print(f"replicating to {depth} ring successor(s) "
                  f"(quorum {quorum}, lag budget {args.lag_budget} units, "
                  f"{len(peers)} peers)", flush=True)
    elif in_process_shards:
        with refusing_stale_images():
            remote = ShardedRemote(ras, shards=args.shards,
                                   replicas=args.replicas,
                                   quorum=args.quorum,
                                   lag_budget_units=args.lag_budget,
                                   lag_budget_grants=args.lag_grants,
                                   data_dir=args.data_dir or None,
                                   admission=admission,
                                   autotune_lag=autotune_lag,
                                   **durability)
        persistences = list(remote.persistences.values())
        if args.replicas > 0:
            remote.start_replication()
        print(f"sharded SL-Remote: {args.shards} in-process shards"
              + (f", {args.replicas} replica(s)" if args.replicas else ""),
              flush=True)
    else:
        remote = SlRemote(ras, admission=admission, autotune_lag=autotune_lag)
        if args.data_dir:
            with refusing_stale_images():
                persistences = attach_persistence(remote, args.data_dir,
                                                  **durability)

    for spec in args.license:
        license_id, units, kind, tick_seconds = _parse_license_spec(spec)
        if owned_licenses is not None and not owned_licenses(license_id):
            print(f"skipped license {license_id!r}: owned by another shard",
                  flush=True)
            continue
        try:
            remote.issue_license(license_id, units, kind=kind,
                                 tick_seconds=tick_seconds)
        except ValueError:
            # Already on the books: recovered from --data-dir.  The
            # durable ledger (grants charged and all) wins over the
            # startup flag's fresh copy.
            print(f"license {license_id!r} recovered from the ledger; "
                  f"--license spec ignored", flush=True)
            continue
        print(f"issued license {license_id!r}: {units:,} units "
              f"({kind.value})", flush=True)

    extra_handlers = manager.extra_handlers() if manager is not None else None
    from repro.net.aio import AsyncLeaseServer

    server = AsyncLeaseServer(remote, host=args.host, port=args.port,
                              max_workers=args.max_workers,
                              max_connections=args.max_connections,
                              extra_handlers=extra_handlers)
    if manager is not None:
        # Standalone shard: the manager (not the remote) holds the
        # replication health that _server_stats surfaces.
        server.replication_health = manager.health
    # Recovery markers print BEFORE the listening marker so harnesses
    # that wait for the port can already have parsed the replay stats.
    for persistence in persistences:
        print(persistence.last_report.marker_line(), flush=True)
    try:
        # SIGTERM is what supervisors (and bench/harness.py) send: it
        # takes Ctrl-C's path, so the final sync, the anchor ratchet and
        # the summary line below happen.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        host, port = server.start()
        # Exact marker line: scripts and the integration test parse it
        # to discover an ephemeral port (--port 0).
        print(f"SL-Remote listening on {host}:{port}", flush=True)
        server.wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        # Serving stops first: once no handler is in flight nothing can
        # journal into a log that is being closed, and a request racing
        # the signal was either answered (its record written, synced by
        # close) or sees its connection drop — a typed transport error.
        server.stop()
        if manager is not None:
            manager.stop()
        if in_process_shards:
            remote.close()  # replication first, then its own logs
        else:
            for persistence in persistences:
                persistence.close()
    print(f"served {server.requests_served} requests over "
          f"{server.connections_accepted} connections "
          f"({server.errors_returned} errors)", flush=True)
    return 0


def cmd_ring(args) -> int:
    """Online fleet membership: join or retire a shard, migrating its
    keyspace license by license while clients keep renewing."""
    from repro.net.endpoint import connect
    from repro.net.sharding import ShardRouterTransport

    endpoint = connect(args.endpoint)
    try:
        transport = endpoint.transport
        if not isinstance(transport, ShardRouterTransport):
            raise SystemExit(
                "ring membership needs an sl+sharded:// endpoint"
            )
        if args.verb == "add":
            host, _, port_text = args.address.rpartition(":")
            if not host or not port_text.isdigit():
                raise SystemExit(
                    f"--address {args.address!r} must look like HOST:PORT"
                )
            moved = transport.add_shard(args.name, host, int(port_text))
            print(f"shard {args.name!r} joined at {args.address}; "
                  f"migrated {len(moved)} license(s)", flush=True)
        else:
            moved = transport.remove_shard(args.name)
            print(f"shard {args.name!r} retired; "
                  f"migrated {len(moved)} license(s)", flush=True)
        for license_id in moved:
            print(f"  moved {license_id}", flush=True)
    finally:
        endpoint.close()
    return 0


def cmd_stats(args) -> int:
    """Fetch and pretty-print every server's typed ``_server_stats``.

    Accepts any endpoint URL; a multi-authority ``sl+sharded://`` fleet
    is probed one server at a time (each address dialled directly, so
    per-shard reports are attributed to the process that produced them
    rather than merged by the router)."""
    import json as json_module

    from repro.net.endpoint import connect, parse_endpoint
    from repro.net.stats import ServerStats, format_stats
    from repro.sim.clock import Clock

    parsed = parse_endpoint(args.endpoint)
    io = dict(parsed.params).get("io", "threads")
    scheme = "sl+async" if io == "async" else "sl"
    reports = {}
    for host, port in parsed.addresses:
        address = f"{host}:{port}"
        endpoint = connect(f"{scheme}://{address}?io={io}")
        try:
            raw = endpoint.call("_server_stats", None, clock=Clock())
        finally:
            endpoint.close()
        reports[address] = raw
    if args.json:
        print(json_module.dumps(reports, indent=2, sort_keys=True),
              flush=True)
        return 0
    for address, raw in reports.items():
        print(format_stats(address, ServerStats.from_wire(raw)), flush=True)
    return 0


def cmd_report(args) -> int:
    from repro.experiments import EXPERIMENTS

    runner = EXPERIMENTS.get(args.experiment)
    if runner is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    table = runner()
    print(table.to_markdown() if args.markdown else table.to_text())
    return 0


def cmd_redteam(args) -> int:
    """Run the red-team campaigns against a freshly spawned fleet.

    Spawns real ``serve-remote`` subprocesses, attacks them through
    the capture/replay proxy and disk levers, and prints the
    invariant auditor's verdict.  Exit status: 0 when every zero-gate
    held, 1 when the fleet lost (any double grant, resurrected unit,
    stale frame accepted, or conservation violation)."""
    import json as json_module
    import shutil
    import tempfile

    from repro.redteam.audit import AuditReport
    from repro.redteam.campaigns import CAMPAIGN_NAMES, run_campaigns

    names = args.campaign or list(CAMPAIGN_NAMES)
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="sl-redteam-")
    cleanup = not args.work_dir
    try:
        results = run_campaigns(
            work_dir, names=names, smoke=args.smoke,
            log=(lambda message: None) if args.json
            else (lambda message: print(f"  {message}", flush=True)),
        )
    finally:
        if cleanup:
            shutil.rmtree(work_dir, ignore_errors=True)

    merged = AuditReport()
    for result in results:
        merged.merge(result.audit)
    if args.json:
        print(json_module.dumps({
            "campaigns": {result.name: {
                "audit": result.audit.as_dict(),
                "details": result.details,
            } for result in results},
            "merged": merged.as_dict(),
        }, indent=2, sort_keys=True), flush=True)
    else:
        for result in results:
            audit = result.audit
            verdict = "DEFENDED" if audit.ok() else "BREACHED"
            print(f"{result.name}: {verdict} — "
                  f"double_grants={audit.double_grants} "
                  f"resurrected_units={audit.resurrected_units} "
                  f"stale_frames_accepted={audit.stale_frames_accepted} "
                  f"tampered {audit.tampered_frames_rejected}/"
                  f"{audit.tampered_frames_sent} rejected, "
                  f"{audit.renewals_served} renewals, "
                  f"{audit.failed_calls} client failures", flush=True)
            for note in audit.notes:
                print(f"  note: {note}", flush=True)
        print(f"overall: {'DEFENDED' if merged.ok() else 'BREACHED'}",
              flush=True)
    return 0 if merged.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="SecureLease reproduction command-line interface",
    )
    parser.add_argument("--seed", type=int, default=42)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list the Table 4 workloads")

    run_parser = subparsers.add_parser("run", help="run a workload end to end")
    run_parser.add_argument("workload")
    run_parser.add_argument("--scale", type=float, default=0.3)
    run_parser.add_argument("--units", type=int, default=1_000_000)
    run_parser.add_argument("--tokens", type=int, default=10)
    run_parser.add_argument("--transport", choices=("in-process", "serialized"),
                            default="in-process",
                            help="loopback transport between SL-Local and "
                                 "SL-Remote")
    run_parser.add_argument("--endpoint", default=None,
                            metavar="sl://HOST:PORT",
                            help="connect to SL-Remote via an endpoint URL "
                                 "(sl://, sl+async://, sl+sharded://); "
                                 "overrides --transport")
    run_parser.add_argument("--batch-window", type=float, default=None,
                            metavar="SECONDS",
                            help="coalesce concurrent renewals for up to "
                                 "this long into one batched frame "
                                 "(same as a batch_window= query param)")

    partition_parser = subparsers.add_parser(
        "partition", help="show partitioning decisions for a workload")
    partition_parser.add_argument("workload")
    partition_parser.add_argument("--scale", type=float, default=0.3)

    attack_parser = subparsers.add_parser(
        "attack", help="run the CFB attack/defence story on a workload")
    attack_parser.add_argument("workload")
    attack_parser.add_argument("--scale", type=float, default=0.2)

    report_parser = subparsers.add_parser(
        "report", help="regenerate a paper table/figure")
    report_parser.add_argument("experiment")
    report_parser.add_argument("--markdown", action="store_true")

    fleet_parser = subparsers.add_parser(
        "fleet", help="multi-node lease distribution demo")
    fleet_parser.add_argument("--nodes", type=int, default=4)
    fleet_parser.add_argument("--units", type=int, default=20_000)
    fleet_parser.add_argument("--checks", type=int, default=100)
    fleet_parser.add_argument("--transport",
                              choices=("in-process", "serialized"),
                              default="in-process",
                              help="loopback transport between each node "
                                   "and SL-Remote")
    fleet_parser.add_argument("--shards", type=int, default=1,
                              help="partition the vendor ledgers across N "
                                   "consistent-hash shards")
    fleet_parser.add_argument("--endpoint", default=None,
                              metavar="sl://HOST:PORT",
                              help="connect every node to SL-Remote via an "
                                   "endpoint URL; overrides --transport")
    fleet_parser.add_argument("--batch-window", type=float, default=None,
                              metavar="SECONDS",
                              help="coalesce concurrent renewals into "
                                   "batched frames for --endpoint")

    serve_parser = subparsers.add_parser(
        "serve-remote",
        help="serve SL-Remote over TCP for out-of-process SL-Local clients")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=4870,
                              help="TCP port (0 picks an ephemeral port, "
                                   "printed on startup)")
    serve_parser.add_argument("--license", action="append", default=[],
                              metavar="ID:UNITS[:KIND[:TICK]]",
                              help="issue a license at startup; repeatable")
    serve_parser.add_argument("--platform-secret", action="append", default=[],
                              metavar="INT",
                              help="enroll a client platform secret "
                                   "(repeatable; accepts 0x.. hex)")
    serve_parser.add_argument("--accept-any-platform", action="store_true",
                              help="enroll platforms on first contact "
                                   "(demo/testing only)")
    serve_parser.add_argument("--shards", type=int, default=1,
                              help="partition the license ledgers across N "
                                   "in-process shards behind this one port")
    serve_parser.add_argument("--shard-of", default="", metavar="I:N",
                              help="serve as shard I of an N-process fleet: "
                                   "issue only the licenses the consistent-"
                                   "hash ring assigns to this shard")
    serve_parser.add_argument("--ring", default="", metavar="NAME,NAME,...",
                              help="explicit shard names for --shard-of "
                                   "(default: shard-0..shard-N-1; all fleet "
                                   "members must agree)")
    serve_parser.add_argument("--wire", type=int, choices=(3,), default=3,
                              help="the one wire format; accepted only "
                                   "because bench/harness.py passes it")
    serve_parser.add_argument("--io", choices=("async",), default="async",
                              help="the one connection model; accepted only "
                                   "because bench/harness.py passes it")
    serve_parser.add_argument("--max-workers", type=int, default=8,
                              help="serving-pool cap: "
                                   "handlers that may block at once (fsync, "
                                   "quorum wait, license lock) plus one to "
                                   "watch the sockets; threads start on "
                                   "demand and idle connections are free")
    serve_parser.add_argument("--max-connections", type=int, default=None,
                              help="shed connections beyond this cap with "
                                   "a typed error envelope instead of "
                                   "growing per-connection state without "
                                   "bound")
    serve_parser.add_argument("--replicas", type=int, default=0,
                              help="replication depth K: stream each "
                                   "license's state to its K ring successors "
                                   "so dead shards can be promoted (with "
                                   "--shard-of this needs --fleet; with "
                                   "--shards it wires in-process followers)")
    serve_parser.add_argument("--fleet", default="",
                              metavar="NAME=HOST:PORT,...",
                              help="every fleet member's name and address "
                                   "(replication peers for --shard-of; names "
                                   "must match --ring / the default names)")
    serve_parser.add_argument("--quorum", type=int, default=None,
                              help="follower acks required before identity "
                                   "(init/shutdown) responses are released; "
                                   "default for --shard-of fleets is a "
                                   "majority of the replica group, 0 "
                                   "disables gating")
    serve_parser.add_argument("--lag-budget", type=int, default=64,
                              help="replication lag budget in granted units: "
                                   "the most a promotion may forfeit per "
                                   "license (grants are clamped to keep the "
                                   "un-replicated window below it)")
    serve_parser.add_argument("--lag-grants", type=int, default=4,
                              help="adaptive lag budget in grants: the "
                                   "shipped budget grows toward N times the "
                                   "peak observed grant (--lag-budget stays "
                                   "the floor)")
    serve_parser.add_argument("--admission", choices=("on", "off"),
                              default="on",
                              help="adaptive admission control: remember "
                                   "node conditions, feed the measured "
                                   "concurrency EWMA into Algorithm 1, and "
                                   "degrade grant sizes under pool pressure "
                                   "instead of refusing ('off' restores the "
                                   "static baseline for A/B comparison)")
    serve_parser.add_argument("--autotune-lag", action="store_true",
                              help="auto-tune tau and the replication lag "
                                   "budget online from the observed "
                                   "forfeiture-vs-refusal balance")
    serve_parser.add_argument("--data-dir", default="", metavar="DIR",
                              help="durable ledgers: journal every mutation "
                                   "to a sealed write-ahead log under DIR "
                                   "and recover from it at startup (one "
                                   "subdirectory per shard)")
    serve_parser.add_argument("--anchor-dir", default="", metavar="DIR",
                              help="freshness anchors (rollback defense): one "
                                   "monotonic watermark file per shard, kept "
                                   "OUTSIDE --data-dir; a restored stale data "
                                   "dir is refused at startup (exit 3) with "
                                   "an SL-Anchor marker")
    serve_parser.add_argument("--fsync", choices=("always", "interval", "off"),
                              default="interval",
                              help="WAL durability policy: fsync each "
                                   "append, group-commit on an interval, or "
                                   "leave flushing to the OS")
    serve_parser.add_argument("--compact-every", type=int, default=4096,
                              help="snapshot + truncate the WAL after this "
                                   "many appended records")

    stats_parser = subparsers.add_parser(
        "stats", help="typed _server_stats reports from a running fleet")
    stats_parser.add_argument("endpoint",
                              metavar="sl://HOST:PORT",
                              help="endpoint URL; sl+sharded:// probes "
                                   "every listed server individually")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the raw wire-shape JSON instead "
                                   "of the pretty rendering")

    ring_parser = subparsers.add_parser(
        "ring", help="online shard membership for a running fleet")
    ring_sub = ring_parser.add_subparsers(dest="verb", required=True)
    ring_add = ring_sub.add_parser(
        "add", help="join a shard and migrate its keyspace to it")
    ring_add.add_argument("--endpoint", required=True,
                          metavar="sl+sharded://H1:P1,H2:P2")
    ring_add.add_argument("--name", required=True,
                          help="ring name of the joining shard")
    ring_add.add_argument("--address", required=True, metavar="HOST:PORT",
                          help="where the joining shard is listening")
    ring_remove = ring_sub.add_parser(
        "remove", help="drain a shard's licenses and retire it")
    ring_remove.add_argument("--endpoint", required=True,
                             metavar="sl+sharded://H1:P1,H2:P2")
    ring_remove.add_argument("--name", required=True,
                             help="ring name of the departing shard")

    redteam_parser = subparsers.add_parser(
        "redteam",
        help="adversarial campaigns against a spawned fleet (capture/"
             "replay, rollback, tamper), audited for zero violations")
    redteam_parser.add_argument("--campaign", action="append", default=[],
                                choices=["headline", "deposed-primary",
                                         "batch-race"],
                                help="campaign(s) to run; default: all")
    redteam_parser.add_argument("--smoke", action="store_true",
                                help="CI scale: fewer clients, shorter "
                                     "warmup/chaos windows")
    redteam_parser.add_argument("--work-dir", default="",
                                metavar="DIR",
                                help="scratch directory for fleet data/"
                                     "anchor dirs (default: a fresh "
                                     "tempdir, removed afterwards)")
    redteam_parser.add_argument("--json", action="store_true",
                                help="emit the merged audit + per-campaign "
                                     "details as JSON")

    return parser


COMMANDS = {
    "workloads": cmd_workloads,
    "report": cmd_report,
    "run": cmd_run,
    "partition": cmd_partition,
    "attack": cmd_attack,
    "fleet": cmd_fleet,
    "serve-remote": cmd_serve_remote,
    "stats": cmd_stats,
    "ring": cmd_ring,
    "redteam": cmd_redteam,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
