"""Multi-machine cluster simulation.

The paper's lease-distribution story (Algorithm 1, Table 2) is about
*fleets*: many client machines with different weights, health, and
network quality sharing licenses from one SL-Remote.  This module wires
N complete client machines (each with its own simulated SGX platform
and SL-Local) to a single server and provides fleet-level experiment
drivers: concurrent check bursts, crash injection, and ledger probes.

Machines advance their own virtual clocks; the cluster interleaves
their work round-robin, which is how concurrency reaches SL-Remote's
``C`` parameter (every node holding or requesting a license counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.renewal import RenewalPolicy
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net.endpoint import connect, endpoint_for
from repro.net.network import NetworkConditions, SimulatedLink
from repro.sgx import RemoteAttestationService, SgxMachine, SgxCostModel
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class NodeSpec:
    """Configuration of one fleet member (Table 2's per-node inputs)."""

    name: str
    weight: float = 1.0  # alpha_i
    network_reliability: float = 1.0  # n_i
    health: float = 1.0  # h_i
    round_trip_seconds: float = 0.050
    tokens_per_attestation: int = 10


@dataclass
class ClusterNode:
    """A live fleet member."""

    spec: NodeSpec
    machine: SgxMachine
    sl_local: SlLocal
    managers: Dict[str, SlManager] = field(default_factory=dict)
    checks_served: int = 0
    checks_denied: int = 0
    crashes: int = 0

    def manager_for(self, app_name: str) -> SlManager:
        if app_name not in self.managers:
            self.managers[app_name] = SlManager(
                f"{app_name}@{self.spec.name}", self.machine, self.sl_local,
                tokens_per_attestation=self.spec.tokens_per_attestation,
            )
        return self.managers[app_name]


class Cluster:
    """A fleet of client machines against one SL-Remote."""

    def __init__(self, seed: int = 0,
                 policy: Optional[RenewalPolicy] = None,
                 costs: Optional[SgxCostModel] = None,
                 transport: str = "in-process",
                 shards: int = 1,
                 endpoint: Optional[str] = None,
                 data_dir: Optional[str] = None) -> None:
        self.rng = DeterministicRng(seed)
        self.costs = costs
        #: Transport backend each node talks to SL-Remote through.
        #: ``"in-process"``/``"serialized"`` are the deterministic
        #: loopbacks (results must be identical — the serialized backend
        #: just proves the tiers share no objects); ``"tcp"``/``"async"``
        #: put the wire server in front of the same remote and drive it
        #: over actual sockets (the strict-ordered vs the pipelining
        #: client), so protocol outcomes must still match while client
        #: clocks pick up real-wire accounting instead.
        self.transport = transport
        self.shards = shards
        self.ras = RemoteAttestationService(costs)
        #: With ``shards > 1`` the vendor side is a consistent-hash
        #: fleet; probes and provisioning below are unchanged because
        #: :class:`~repro.net.sharding.ShardedRemote` routes them.
        self.persistences = []
        if shards > 1:
            from repro.net.sharding import ShardedRemote

            self.remote = ShardedRemote(self.ras, shards=shards,
                                        policy=policy, data_dir=data_dir)
            self.persistences = list(self.remote.persistences.values())
        else:
            self.remote = SlRemote(self.ras, policy=policy)
            if data_dir is not None:
                from repro.storage.wal import attach_persistence

                self.persistences = attach_persistence(self.remote, data_dir)
        #: An explicit endpoint URL (``sl://``, ``sl+sharded://``, ...)
        #: overrides the legacy transport names: every node connects to
        #: it through :func:`repro.net.connect`.
        self.endpoint = endpoint
        self._wire_server = None
        if endpoint is not None:
            pass  # nodes dial the given endpoint; no server is spawned
        elif transport in ("tcp", "async"):
            from repro.net.aio import AsyncLeaseServer

            self._wire_server = AsyncLeaseServer(self.remote)
            self._wire_server.start()
        elif transport not in ("in-process", "serialized"):
            raise ValueError(f"unknown cluster transport {transport!r}")
        self.nodes: Dict[str, ClusterNode] = {}
        self._license_blobs: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def issue_license(self, license_id: str, total_units: int) -> bytes:
        definition = self.remote.issue_license(license_id, total_units)
        blob = definition.license_blob()
        self._license_blobs[license_id] = blob
        return blob

    def add_node(self, spec: NodeSpec) -> ClusterNode:
        if spec.name in self.nodes:
            raise ValueError(f"node {spec.name!r} already exists")
        machine = SgxMachine(spec.name, costs=self.costs)
        self.ras.register_platform(machine.platform_secret)
        link = SimulatedLink(
            NetworkConditions(
                round_trip_seconds=spec.round_trip_seconds,
                reliability=max(spec.network_reliability, 0.05),
            ),
            self.rng.fork(f"net:{spec.name}"),
        )
        if self.endpoint is not None:
            if self.endpoint.startswith(("sl+inproc://", "sl+serialized://")):
                endpoint = connect(self.endpoint, remote=self.remote,
                                   link=link)
            else:
                endpoint = connect(self.endpoint, conditions=link.conditions)
        elif self._wire_server is not None:
            io = "async" if self.transport == "async" else "threads"
            endpoint = connect(
                endpoint_for([self._wire_server.address], io=io),
                conditions=link.conditions,
            )
        else:
            scheme = ("sl+inproc://" if self.transport == "in-process"
                      else "sl+serialized://")
            endpoint = connect(scheme, remote=self.remote, link=link)
        sl_local = SlLocal(
            machine, endpoint,
            KeyGenerator(self.rng.fork(f"keys:{spec.name}")),
            tokens_per_attestation=spec.tokens_per_attestation,
            network_reliability=spec.network_reliability,
            health=spec.health,
            weight=spec.weight,
        )
        sl_local.init()
        node = ClusterNode(spec=spec, machine=machine, sl_local=sl_local)
        self.nodes[spec.name] = node
        return node

    # ------------------------------------------------------------------
    # Experiment drivers
    # ------------------------------------------------------------------
    def run_checks(self, license_id: str, checks_per_node: int,
                   app_name: str = "app") -> Dict[str, int]:
        """Round-robin ``checks_per_node`` license checks on every node.

        Interleaving one check at a time means every node is a live
        concurrent requester from SL-Remote's perspective.  Returns the
        per-node served counts.
        """
        blob = self._license_blobs[license_id]
        served: Dict[str, int] = {name: 0 for name in self.nodes}
        order = list(self.nodes.values())
        for _ in range(checks_per_node):
            for node in order:
                manager = node.manager_for(app_name)
                if license_id not in manager._licenses:
                    manager.load_license(license_id, blob)
                if manager.check(license_id):
                    node.checks_served += 1
                    served[node.spec.name] += 1
                else:
                    node.checks_denied += 1
        return served

    def crash_node(self, name: str) -> None:
        """Hard-kill a node's SL-Local and bring it back (crash path)."""
        node = self.nodes[name]
        node.sl_local.crash()
        node.crashes += 1
        node.sl_local.reincarnate()
        node.sl_local.init()
        for manager in node.managers.values():
            manager.sl_local = node.sl_local
            manager._tokens.clear()

    def shutdown_node(self, name: str) -> None:
        """Graceful shutdown + restart (state restored)."""
        node = self.nodes[name]
        node.sl_local.shutdown()
        node.sl_local.reincarnate()
        node.sl_local.init()
        for manager in node.managers.values():
            manager.sl_local = node.sl_local
            manager._tokens.clear()

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def outstanding(self, license_id: str) -> Dict[str, int]:
        """Units outstanding per node for a license."""
        ledger = self.remote.ledger(license_id)
        result = {}
        for name, node in self.nodes.items():
            key = f"slid:{node.sl_local.slid}"
            result[name] = ledger.outstanding.get(key, 0)
        return result

    def expected_loss(self, license_id: str) -> float:
        return self.remote.ledger(license_id).expected_loss()

    def pool_conserved(self, license_id: str, total_units: int) -> bool:
        """Invariant: served + outstanding + lost + available == pool."""
        ledger = self.remote.ledger(license_id)
        outstanding = sum(ledger.outstanding.values())
        return (
            outstanding + ledger.lost_units + ledger.available == total_units
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close node endpoints and stop the wire server, if any.

        A no-op for the loopback transports; required cleanup for the
        ``"tcp"``/``"async"`` backends so sockets and server threads do
        not outlive the experiment.
        """
        for node in self.nodes.values():
            try:
                node.sl_local.remote.close()
            except Exception:
                pass
        if self._wire_server is not None:
            self._wire_server.stop()
            self._wire_server = None
        for persistence in self.persistences:
            persistence.close()
        self.persistences = []
