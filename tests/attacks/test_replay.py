"""Tests for replay attacks on SL-Local (Sections 5.7 / 6.2).

Every attack runs twice: once over the simulated in-process link and
once over a real TCP socket to a live :class:`AsyncLeaseServer` — the
defenses are server-side policy, so the transport must not matter.
"""

import pytest

from repro.attacks.replay import ReplayAttacker
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net.endpoint import connect
from repro.net.network import NetworkConditions, SimulatedLink
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.rng import DeterministicRng


@pytest.fixture(params=["inproc", "tcp"])
def attack_target(request):
    """Factory building (remote, local, manager) over either transport.

    TCP targets run against a real :class:`AsyncLeaseServer` on a live
    socket; the fixture owns the servers' lifecycle so every test body
    reads the same for both transports.
    """
    servers = []

    def build(total_units=100, tokens_per_attestation=1):
        rng = DeterministicRng(31)
        ras = RemoteAttestationService()
        remote = SlRemote(ras)
        definition = remote.issue_license("lic-victim", total_units)
        machine = SgxMachine("attacker-box")
        ras.register_platform(machine.platform_secret)
        if request.param == "tcp":
            from repro.net.aio import AsyncLeaseServer

            server = AsyncLeaseServer(remote, port=0)
            server.start()
            servers.append(server)
            host, port = server.address
            endpoint = connect(f"sl://{host}:{port}")
        else:
            link = SimulatedLink(NetworkConditions(), rng.fork("net"))
            endpoint = connect("sl+inproc://", remote=remote, link=link)
        local = SlLocal(machine, endpoint, KeyGenerator(rng.fork("keys")),
                        tokens_per_attestation=tokens_per_attestation)
        local.init()
        manager = SlManager("victim-app", machine, local,
                            tokens_per_attestation=tokens_per_attestation)
        manager.load_license("lic-victim", definition.license_blob())
        return remote, local, manager

    yield build
    for server in servers:
        server.stop()


class TestCrashReplay:
    def test_crash_replay_gains_nothing(self, attack_target):
        """The paper's scenario: crash before the decrement persists.

        Pessimistic write-off means every crash burns the *whole*
        outstanding sub-GCL, so total executions stay within the
        license (in fact the attacker strictly loses units)."""
        remote, local, manager = attack_target(total_units=100)
        attacker = ReplayAttacker(local, manager, "lic-victim")
        outcome = attacker.crash_replay_loop(rounds=20, executions_per_round=1)
        assert not outcome.attack_succeeded
        assert outcome.executions_obtained <= outcome.executions_entitled

    def test_crashing_is_strictly_worse_than_honesty(self, attack_target):
        """Crash-replaying wastes units: fewer total executions than a
        well-behaved client would have obtained."""
        remote, local, manager = attack_target(total_units=100)
        attacker = ReplayAttacker(local, manager, "lic-victim")
        outcome = attacker.crash_replay_loop(rounds=10, executions_per_round=1)

        honest_remote, honest_local, honest_manager = attack_target(
            total_units=100
        )
        honest_runs = 0
        for _ in range(200):
            if honest_manager.check("lic-victim"):
                honest_runs += 1
        assert outcome.executions_obtained < honest_runs

    def test_server_ledger_reflects_losses(self, attack_target):
        remote, local, manager = attack_target(total_units=100)
        attacker = ReplayAttacker(local, manager, "lic-victim")
        attacker.crash_replay_loop(rounds=5, executions_per_round=1)
        ledger = remote.ledger("lic-victim")
        assert ledger.lost_units > 0
        assert ledger.available < 100

    def test_entitlement_readable_over_the_wire(self, attack_target):
        """The attacker's own license terms resolve on both transports:
        by handler-table introspection in-proc, by ``ledger_probe``
        over TCP — never silently zero."""
        remote, local, manager = attack_target(total_units=100)
        attacker = ReplayAttacker(local, manager, "lic-victim")
        assert attacker._entitlement() == 100


class TestStaleImageReplay:
    def test_stale_image_rejected(self, attack_target):
        """Replaying an old sealed tree fails validation: the escrowed
        OBK seals the *latest* root, not the captured one."""
        remote, local, manager = attack_target(
            total_units=100, tokens_per_attestation=1
        )
        attacker = ReplayAttacker(local, manager, "lic-victim")
        outcome = attacker.stale_image_replay()
        assert outcome.replay_rejected
        assert not outcome.attack_succeeded

    def test_server_counter_authoritative_after_replay(self, attack_target):
        """After the rejected replay, the client renews from the server,
        whose ledger still reflects every spent unit."""
        remote, local, manager = attack_target(
            total_units=100, tokens_per_attestation=1
        )
        attacker = ReplayAttacker(local, manager, "lic-victim")
        attacker.stale_image_replay()
        # The client can still operate — with fresh, correctly-counted
        # sub-GCLs from the server.
        manager.sl_local = local
        manager._tokens.clear()
        assert manager.check("lic-victim")
        ledger = remote.ledger("lic-victim")
        spent_or_out = 100 - ledger.available
        assert spent_or_out > 0
