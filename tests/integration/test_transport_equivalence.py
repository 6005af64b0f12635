"""Acceptance: a deterministic experiment produces identical results on
InProcessTransport and SerializedLoopbackTransport.

If the serialized backend ever diverges, some state is leaking between
tiers through shared object identity instead of the wire.
"""

from repro.cluster import Cluster, NodeSpec
from repro.deployment import SecureLeaseDeployment

LICENSE = "lic-eq"
POOL = 30_000


def fleet_fingerprint(transport: str, seed: int = 17):
    """Run a fixed fleet scenario and reduce it to comparable numbers."""
    cluster = Cluster(seed=seed, transport=transport)
    cluster.issue_license(LICENSE, POOL)
    for i in range(4):
        cluster.add_node(NodeSpec(
            f"n{i}",
            weight=1.0 + i,
            health=1.0 - 0.1 * i,
            network_reliability=1.0 - 0.05 * i,
        ))
    served_a = cluster.run_checks(LICENSE, checks_per_node=40)
    cluster.crash_node("n1")
    served_b = cluster.run_checks(LICENSE, checks_per_node=40)
    cluster.shutdown_node("n3")
    ledger = cluster.remote.ledger(LICENSE)
    return {
        "served": (served_a, served_b),
        "outstanding": cluster.outstanding(LICENSE),
        "available": ledger.available,
        "lost": ledger.lost_units,
        "renewals": cluster.remote.renewals_served,
        "clocks": {name: node.machine.clock.cycles
                   for name, node in cluster.nodes.items()},
        "attestations": {name: node.machine.stats.remote_attestations
                         for name, node in cluster.nodes.items()},
    }


def test_fleet_experiment_identical_across_transports():
    in_process = fleet_fingerprint("in-process")
    serialized = fleet_fingerprint("serialized")
    assert in_process == serialized


def test_deployment_identical_across_transports():
    results = {}
    for transport in ("in-process", "serialized"):
        deployment = SecureLeaseDeployment(seed=5, transport=transport)
        blob = deployment.issue_license("lic-d", 5_000)
        manager = deployment.manager_for("app")
        manager.load_license("lic-d", blob)
        served = sum(manager.check("lic-d") for _ in range(60))
        results[transport] = (
            served,
            deployment.machine.clock.cycles,
            deployment.machine.stats.remote_attestations,
            deployment.remote.ledger("lic-d").available,
        )
    assert results["in-process"] == results["serialized"]


# ----------------------------------------------------------------------
# Real-wire backends: identical protocol outcomes over actual sockets
# ----------------------------------------------------------------------
# The "tcp" and "async" backends serve the same remote through the wire
# server (strict-ordered vs pipelining client).  Client clocks and stats
# diverge by design — remote-attestation time lands on the server's
# clock over a real wire — so the equivalence contract is the *protocol
# outcome*: who got how many units, what the ledger says, what was lost.

def wire_fleet_fingerprint(transport: str, seed: int = 17, shards: int = 1):
    """A fixed fleet scenario reduced to protocol outcomes only.

    Nodes are perfectly reliable: the loopback link drops messages by
    simulated chance, a healthy localhost socket does not, so only the
    lossless configuration is comparable across real and simulated
    wires.
    """
    cluster = Cluster(seed=seed, transport=transport, shards=shards)
    try:
        cluster.issue_license(LICENSE, POOL)
        for i in range(4):
            cluster.add_node(NodeSpec(
                f"n{i}",
                weight=1.0 + i,
                health=1.0 - 0.1 * i,
            ))
        served_a = cluster.run_checks(LICENSE, checks_per_node=40)
        cluster.crash_node("n1")
        served_b = cluster.run_checks(LICENSE, checks_per_node=40)
        cluster.shutdown_node("n3")
        ledger = cluster.remote.ledger(LICENSE)
        return {
            "served": (served_a, served_b),
            "outstanding": cluster.outstanding(LICENSE),
            "available": ledger.available,
            "lost": ledger.lost_units,
            "renewals": cluster.remote.renewals_served,
            "conserved": cluster.pool_conserved(LICENSE, POOL),
        }
    finally:
        cluster.close()


def test_wire_backends_match_in_process_protocol_outcomes():
    baseline = wire_fleet_fingerprint("in-process")
    assert baseline["conserved"]
    assert wire_fleet_fingerprint("tcp") == baseline
    assert wire_fleet_fingerprint("async") == baseline


def test_sharded_fleet_identical_across_wire_backends():
    baseline = wire_fleet_fingerprint("in-process", shards=3)
    assert baseline["conserved"]
    assert wire_fleet_fingerprint("async", shards=3) == baseline
    assert wire_fleet_fingerprint("tcp", shards=3) == baseline


def socket_client_fingerprint(query: str, seed: int = 17):
    """The wire fleet scenario with every node dialing ``sl://...?query``.

    The server side is a stock :class:`AsyncLeaseServer`; the query string
    sets client knobs (here, a renewal batch window), so each row
    checks that such a client reaches the same protocol outcome as the
    plain one.
    """
    from repro.net.aio import AsyncLeaseServer

    cluster = Cluster(seed=seed, endpoint="pending")
    server = AsyncLeaseServer(cluster.remote)
    host, port = server.start()
    suffix = f"?{query}" if query else ""
    cluster.endpoint = f"sl://{host}:{port}{suffix}"
    try:
        cluster.issue_license(LICENSE, POOL)
        for i in range(4):
            cluster.add_node(NodeSpec(
                f"n{i}",
                weight=1.0 + i,
                health=1.0 - 0.1 * i,
            ))
        served_a = cluster.run_checks(LICENSE, checks_per_node=40)
        cluster.crash_node("n1")
        served_b = cluster.run_checks(LICENSE, checks_per_node=40)
        cluster.shutdown_node("n3")
        ledger = cluster.remote.ledger(LICENSE)
        fingerprint = {
            "served": (served_a, served_b),
            "outstanding": cluster.outstanding(LICENSE),
            "available": ledger.available,
            "lost": ledger.lost_units,
            "renewals": cluster.remote.renewals_served,
            "conserved": cluster.pool_conserved(LICENSE, POOL),
        }
        return fingerprint, server.wire_stats.snapshot()
    finally:
        cluster.close()
        server.stop()


def test_batching_client_matches_plain_client_protocol_outcomes():
    """Acceptance: a batching client lands on the same numbers through
    the ``renew_batch`` path as a plain one does frame by frame, and
    neither has a single frame rejected."""
    baseline = wire_fleet_fingerprint("in-process")
    assert baseline["conserved"]
    for query in ("", "batch_window=0.001"):
        fingerprint, wire = socket_client_fingerprint(query)
        assert fingerprint == baseline, f"client row {query!r} diverged"
        assert wire["frames_rejected"] == 0, query
        assert (wire["batch_frames"] > 0) == bool(query), query


def test_deployment_wire_backends_match_protocol_outcomes():
    results = {}
    for transport in ("in-process", "tcp", "async"):
        deployment = SecureLeaseDeployment(seed=5, transport=transport)
        try:
            blob = deployment.issue_license("lic-d", 5_000)
            manager = deployment.manager_for("app")
            manager.load_license("lic-d", blob)
            served = sum(manager.check("lic-d") for _ in range(60))
            results[transport] = (
                served,
                deployment.remote.ledger("lic-d").available,
                sum(deployment.remote.ledger("lic-d").outstanding.values()),
            )
        finally:
            deployment.close()
    assert results["tcp"] == results["in-process"]
    assert results["async"] == results["in-process"]
