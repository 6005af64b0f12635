"""Typed fleet introspection: stats dataclasses and the CLI verb."""

import json

import pytest

from repro.cli import main
from repro.core.sl_remote import SlRemote
from repro.net import codec
from repro.net.stats import (ReplicationHealth, RenewalHealth, ServerStats,
                             format_stats, sniff_renewal, sniff_replication)
from repro.sgx import RemoteAttestationService


def sample_renewal():
    return RenewalHealth(
        admission=True, autotune_lag=True, tau_fraction=0.125,
        exhausted_served=2, degraded_served=9,
        autotune_widened=3, autotune_narrowed=1,
        licenses={"lic-a": {"grants": 40, "exhausted": 2, "degraded": 9,
                            "holders": 12, "expected_loss": 3.5,
                            "concurrency_ewma": 11.2,
                            "grant_hist": {"3": 18, "4": 22}}},
    )


def sample_replication():
    return ReplicationHealth(
        epoch=4, quorum=1, quorum_timeouts=0, promoted=("shard-2",),
        follows={"deltas_applied": 812, "fenced": 3},
        replicates={"seq": 900, "identity_seq": 41, "batches_sent": 120,
                    "peers": {"shard-1": {"ack_lag": 2}}},
    )


class TestWireRoundTrips:
    def test_renewal_health_round_trip(self):
        report = sample_renewal()
        assert RenewalHealth.from_wire(report.to_wire()) == report

    def test_replication_health_round_trip(self):
        report = sample_replication()
        assert ReplicationHealth.from_wire(report.to_wire()) == report
        follower = ReplicationHealth(epoch=1, follows={"deltas_applied": 7})
        assert "replicates" not in follower.to_wire()
        assert ReplicationHealth.from_wire(follower.to_wire()) == follower

    def test_server_stats_round_trip_single_remote(self):
        stats = ServerStats(
            io="async", requests_served=512, errors_returned=1,
            connections_accepted=9, connections_shed=0, resident_threads=4,
            wire={"frames_decoded": 512, "frames_encoded": 512},
            exhausted_served=2,
            renewal=sample_renewal(), replication=sample_replication(),
        )
        assert ServerStats.from_wire(stats.to_wire()) == stats
        assert stats.renewal_by_shard() == {"": stats.renewal}
        assert stats.replication_by_shard() == {"": stats.replication}

    def test_server_stats_round_trip_sharded_sections(self):
        stats = ServerStats(
            renewal={"shard-0": sample_renewal(),
                     "shard-1": RenewalHealth(admission=False)},
            replication={"shard-0": sample_replication()},
        )
        rebuilt = ServerStats.from_wire(stats.to_wire())
        assert rebuilt == stats
        assert set(rebuilt.renewal_by_shard()) == {"shard-0", "shard-1"}

    def test_sniffers_accept_both_historical_shapes(self):
        single = sample_renewal()
        assert sniff_renewal(single.to_wire()) == single
        sharded = {"shard-0": single.to_wire()}
        assert sniff_renewal(sharded) == {"shard-0": single}
        repl = sample_replication()
        assert sniff_replication(repl.to_wire()) == repl
        assert sniff_replication({"s": repl.to_wire()}) == {"s": repl}

    def test_codec_registration_round_trip(self):
        for message in (sample_renewal(), sample_replication(),
                        ServerStats(renewal=sample_renewal())):
            rebuilt = codec.decode_value(codec.encode_value(message))
            assert rebuilt == message

    def test_format_stats_renders_every_section(self):
        stats = ServerStats(io="async", requests_served=512,
                            renewal=sample_renewal(),
                            replication=sample_replication())
        text = format_stats("127.0.0.1:4870", stats)
        assert "127.0.0.1:4870" in text
        assert "admission=on" in text
        assert "lic-a" in text
        assert "epoch=4" in text
        assert "ack_lag={'shard-1': 2}" in text


# ----------------------------------------------------------------------
# The CLI verb against live servers: both clients, sharded fleet
# ----------------------------------------------------------------------
def _remote(license_id="lic-s"):
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    remote.issue_license(license_id, 10_000)
    return remote


def _serve():
    from repro.net.aio import AsyncLeaseServer

    server = AsyncLeaseServer(_remote(), port=0)
    server.start()
    return server


@pytest.fixture()
def server():
    server = _serve()
    yield server
    server.stop()


@pytest.fixture()
def other_server():
    server = _serve()
    yield server
    server.stop()


class TestStatsCliVerb:
    def test_stats_over_the_strict_ordered_client(self, server, capsys):
        host, port = server.address
        assert main(["stats", f"sl://{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert f"{host}:{port}" in out
        assert "[async]" in out
        assert "renewal" in out

    def test_stats_against_async_server(self, server, capsys):
        host, port = server.address
        assert main(["stats", f"sl+async://{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "[async]" in out

    def test_stats_probes_every_shard_of_a_fleet(self, server, other_server,
                                                 capsys):
        # An sl+sharded:// URL dials each listed server directly, so the
        # report attributes sections to the process that produced them.
        first = "{}:{}".format(*server.address)
        second = "{}:{}".format(*other_server.address)
        assert main(["stats", f"sl+sharded://{first},{second}"]) == 0
        out = capsys.readouterr().out
        assert first in out
        assert second in out

    def test_stats_json_is_the_raw_envelope(self, server, capsys):
        host, port = server.address
        assert main(["stats", f"sl://{host}:{port}", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload[f"{host}:{port}"]
        stats = ServerStats.from_wire(report)
        assert stats.io == "async"
        # The probe is the connection's first and only frame, and it
        # is counted once answered — after this snapshot was taken.
        assert stats.connections_accepted == 1
        assert stats.requests_served == 0
