"""Stateful (model-based) fuzzing: followers converge without the timer.

One source, two in-process followers, no flusher thread.  Hypothesis
interleaves traffic (issue / init / re-init / shutdown / renew /
return), shipping (``flush_now``, one reconciliation pass) and faults
(a link that raises once — before or after delivering —, a follower
that loses its whole store, a license whose followers change).  After
``flush_now(); snapshot_now(); snapshot_now()`` each follower's replica
of the source must be what the source would export, and its watermark
the one the source holds for it — with **no** periodic full snapshot to
paper over anything: a rebuild happens only on evidence.

The same machine run with one evidence trigger disabled (monkeypatched
here, never a switch in ``src/``) must find a divergence: that is the
proof each trigger is needed.

What "equal" means: a replica built from deltas carries everything the
ledger's conservation depends on (definition, outstanding, lost,
holdings, identity), not the renewal policy's soft state (``beta``,
``node_conditions``) — deltas never carried those; they ride rebuilds
and are re-learnt from each holder's next renewal.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.protocol import InitRequest, RenewRequest, ShutdownNotice
from repro.core.sl_remote import SlRemote
from repro.net.replication import (
    FollowerStore,
    LocalPeerLink,
    ReplicationManager,
    ReplicationSource,
)
from repro.sgx import RemoteAttestationService, SgxMachine

POOL = 50_000
PEERS = ("b", "c")
PLACEMENTS = ((), ("b",), ("c",), ("b", "c"))
MAX_LICENSES, MAX_CLIENTS = 3, 4

indexes = st.integers(min_value=0, max_value=7)
peers = st.sampled_from(PEERS)
placements = st.sampled_from(PLACEMENTS)


def fresh_remote():
    return SlRemote(RemoteAttestationService(accept_any_platform=True))


class StoreOnlyManager(ReplicationManager):
    """Cannot synthesise ``issue`` records: they must come by snapshot."""

    def handle_replicate(self, batch):
        return self.store.apply_batch(batch)


class FlakyLink(LocalPeerLink):
    """Raises once when armed: ``"before"`` the peer saw the message
    (it was lost) or ``"after"`` (only the reply was)."""

    def __init__(self, manager):
        super().__init__(manager)
        self.fail = None

    def call(self, method, payload):
        fail, self.fail = self.fail, None
        if fail == "before":
            raise ConnectionError("message lost")
        reply = super().call(method, payload)
        if fail == "after":
            raise ConnectionError("reply lost")
        return reply


def replicated_view(record):
    """The part of a wire-form license record the delta stream owns."""
    ledger = record["ledger"]
    return {
        "definition": record["definition"],
        "frozen": record["frozen"],
        "total_gcl": ledger["total_gcl"],
        "lost_units": ledger["lost_units"],
        "outstanding": {key: units for key, units
                        in ledger["outstanding"].items() if units},
        "holdings": {slid: units for slid, units
                     in record.get("holdings", {}).items() if units},
    }


class ReplicationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.remote = fresh_remote()
        # "c" lends its store no secret, so an ``issue`` it is sent is
        # a delta it cannot apply (trigger b's documented case).
        self.followers = {"b": ReplicationManager(fresh_remote(), "b"),
                          "c": StoreOnlyManager(fresh_remote(), "c")}
        self.links = {name: FlakyLink(manager)
                      for name, manager in self.followers.items()}
        self.placement = {}
        self.source = ReplicationSource(
            self.remote, "a", peers=dict(self.links),
            followers_for=lambda lid: self.placement.get(lid, ()),
        )
        self.blobs = {}
        self.clients = []  # [machine, slid, shut_down]

    # -- traffic --------------------------------------------------------
    @precondition(lambda self: len(self.blobs) < MAX_LICENSES)
    @rule(placement=placements)
    def issue_license(self, placement):
        license_id = f"lic-{len(self.blobs)}"
        self.placement[license_id] = placement
        self.blobs[license_id] = self.remote.issue_license(
            license_id, POOL).license_blob()

    def _init(self, machine, slid):
        report = machine.local_authority.generate_report(1, 1, nonce=1)
        return self.remote.handle_init(
            InitRequest(slid=slid, report=report,
                        platform_secret=machine.platform_secret),
            machine.clock, machine.stats)

    @precondition(lambda self: len(self.clients) < MAX_CLIENTS)
    @rule()
    def init(self):
        machine = SgxMachine(f"client-{len(self.clients)}")
        self.clients.append([machine, self._init(machine, None).slid, False])

    @precondition(lambda self: self.clients)
    @rule(index=indexes)
    def shutdown(self, index):
        client = self.clients[index % len(self.clients)]
        self.remote.handle_shutdown(
            ShutdownNotice(slid=client[1], root_key=1000 + index))
        client[2] = True

    @precondition(lambda self: self.clients)
    @rule(index=indexes)
    def reinit(self, index):
        """After a shutdown: the escrow is handed back.  Without one:
        the crash path writes the client's holdings off."""
        client = self.clients[index % len(self.clients)]
        self._init(client[0], client[1])
        client[2] = False

    @precondition(lambda self: self.clients and self.blobs)
    @rule(client=indexes, license=indexes)
    def renew(self, client, license):
        _machine, slid, _shut = self.clients[client % len(self.clients)]
        license_id = sorted(self.blobs)[license % len(self.blobs)]
        self.remote.handle_renew(RenewRequest(
            slid=slid, license_id=license_id,
            license_blob=self.blobs[license_id],
            network_reliability=1.0, health=1.0))

    @precondition(lambda self: self.clients and self.blobs)
    @rule(client=indexes, license=indexes,
          units=st.integers(min_value=1, max_value=64))
    def return_units(self, client, license, units):
        _machine, slid, _shut = self.clients[client % len(self.clients)]
        license_id = sorted(self.blobs)[license % len(self.blobs)]
        held = self.remote._clients[slid].holdings.get(license_id, 0)
        if held:
            self.remote.return_units(slid, license_id, min(units, held))

    # -- shipping -------------------------------------------------------
    @rule()
    def flush(self):
        self.source.flush_now()

    @rule()
    def one_pass(self):
        self.source.snapshot_now()

    # -- faults ---------------------------------------------------------
    @rule(peer=peers, when=st.sampled_from(("before", "after")))
    def link_raises_once(self, peer, when):
        self.links[peer].fail = when

    @rule(peer=peers)
    def follower_loses_its_store(self, peer):
        self.followers[peer].store = FollowerStore()

    @precondition(lambda self: self.blobs)
    @rule(license=indexes, placement=placements)
    def followers_change(self, license, placement):
        license_id = sorted(self.blobs)[license % len(self.blobs)]
        self.placement[license_id] = placement

    # -- the invariant --------------------------------------------------
    @rule()
    def converge(self):
        source = self.source
        source.flush_now()
        source.snapshot_now()
        source.snapshot_now()
        assert source._needs_snapshot == {}
        identity = self.remote.export_identity()
        for peer, follower in self.followers.items():
            replica = follower.store._sources["a"]
            assert replica.identity == identity, peer
            followed = {license_id for license_id in self.blobs
                        if peer in self.placement[license_id]}
            assert set(replica.licenses) == followed, peer
            for license_id in followed:
                assert replicated_view(replica.licenses[license_id]) \
                    == replicated_view(
                        self.remote.export_license_state(license_id)), \
                    (peer, license_id)
            assert replica.last_seq == source._acked_seq.get(peer, 0), peer
        # Every rebuild has a recorded reason.
        assert sum(source.reconciled.values()) == source.snapshots_sent

    def teardown(self):
        self.source.stop()


# Derandomised: the three must-fail runs have to find their divergence
# on every run of the suite, not on most of them.
SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None,
                    derandomize=True, database=None,
                    report_multiple_bugs=False)


def test_followers_converge_on_evidence_alone():
    run_state_machine_as_test(ReplicationMachine, settings=SETTINGS)


def _reply_without(key):
    apply_batch = FollowerStore.apply_batch

    def apply(self, batch, **kwargs):
        reply = apply_batch(self, batch, **kwargs)
        reply.pop(key, None)
        return reply
    return apply


def _never_mark(reason):
    mark = ReplicationSource._mark

    def _mark(self, peer_name, why):
        if why != reason:
            mark(self, peer_name, why)
    return _mark


@pytest.mark.parametrize("trigger, target, attribute, replacement", [
    ("b: skipped", FollowerStore, "apply_batch", _reply_without("skipped")),
    ("c: watermark", FollowerStore, "apply_batch",
     _reply_without("prior_seq")),
    ("d: follow_set", ReplicationSource, "_mark", _never_mark("follow_set")),
], ids=lambda value: value.split(":")[0] if isinstance(value, str) else "")
def test_each_trigger_is_needed(monkeypatch, trigger, target, attribute,
                                replacement):
    monkeypatch.setattr(target, attribute, replacement)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(ReplicationMachine, settings=SETTINGS)
