"""End-to-end deployment wiring.

:class:`SecureLeaseDeployment` assembles a complete client machine —
simulated SGX platform, SL-Local service connected to an SL-Remote over
a simulated network, per-application SL-Manager — and runs partitioned
workloads on it with live lease checking.  This is the configuration
Figure 9 measures; the same class can be wired with the F-LaaS lease
logic (a remote attestation per license check) or the Glamdring
partitioner for the paper's two baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.gcl import LeaseKind
from repro.core.renewal import RenewalPolicy
from repro.core.sl_local import SlLocal
from repro.core.sl_manager import SlManager
from repro.core.sl_remote import SlRemote
from repro.crypto.keys import KeyGenerator
from repro.net.endpoint import connect, endpoint_for
from repro.net.network import NetworkConditions, SimulatedLink
from repro.partition.base import Partition, Partitioner
from repro.partition.securelease import SecureLeasePartitioner
from repro.sgx import RemoteAttestationService, SgxMachine
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRng
from repro.vcpu.machine import ExecutionDenied, VirtualCpu
from repro.vcpu.tracer import Tracer
from repro.workloads.base import Workload


@dataclass
class AppRun:
    """Outcome of one end-to-end application execution."""

    result: object
    cycles: int
    local_attestations: int
    remote_attestations: int
    lease_checks: int


class FlaasLeaseManager:
    """The F-LaaS lease logic: remote attestation per lease acquisition.

    Used as the Figure 9 baseline — same partition as SecureLease, but
    there is no SL-Local: every batch of ``tokens_per_attestation``
    executions requires a fresh remote-attested fetch from the license
    server (F-LaaS has no trusted local cache to consult), so the RA
    count scales with usage instead of with sub-GCL renewals.
    """

    def __init__(self, app_name: str, machine: SgxMachine,
                 ras: RemoteAttestationService, remote: SlRemote,
                 tokens_per_attestation: int = 10) -> None:
        self.app_name = app_name
        self.machine = machine
        self.ras = ras
        self.remote = remote
        self.tokens_per_attestation = tokens_per_attestation
        self.enclave = machine.create_enclave(f"flaas-manager:{app_name}")
        self._licenses: Dict[str, bytes] = {}
        self._grants: Dict[str, int] = {}
        self._nonce = 0
        self.checks = 0

    def load_license(self, license_id: str, blob: bytes) -> None:
        self._licenses[license_id] = blob

    def check(self, license_id: str) -> bool:
        blob = self._licenses.get(license_id)
        if blob is None:
            return False
        if self._grants.get(license_id, 0) > 0:
            self._grants[license_id] -= 1
            self.checks += 1
            return True
        definition = self.remote.license_definition(license_id)
        if definition.revoked or blob != definition.license_blob():
            return False
        self._nonce += 1
        report = self.machine.local_authority.generate_report(
            self.enclave.measurement, self.enclave.measurement, self._nonce
        )
        # The costly part: a full remote attestation per token batch.
        self.ras.verify_remote(
            self.machine.clock, self.machine.stats, report,
            self.machine.platform_secret,
        )
        ledger = self.remote.ledger(license_id)
        batch = min(self.tokens_per_attestation, ledger.available)
        if batch <= 0:
            return False
        ledger.lost_units += batch  # consumed directly from the pool
        self._grants[license_id] = batch - 1
        self.checks += 1
        return True


class SecureLeaseDeployment:
    """A client machine running SecureLease end to end."""

    def __init__(
        self,
        seed: int = 42,
        tokens_per_attestation: int = 10,
        network: Optional[NetworkConditions] = None,
        policy: Optional[RenewalPolicy] = None,
        machine_name: str = "client",
        costs=None,
        transport: str = "in-process",
        shards: int = 1,
        endpoint: Optional[str] = None,
        data_dir: Optional[str] = None,
    ) -> None:
        self.rng = DeterministicRng(seed)
        self.ras = RemoteAttestationService(costs)
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
        self.machine = SgxMachine(machine_name, costs=costs)
        self.ras.register_platform(self.machine.platform_secret)
        self.link = SimulatedLink(
            network if network is not None else NetworkConditions(),
            self.rng.fork("net"),
        )
        #: ``"tcp"``/``"async"`` front the same remote with the wire
        #: server and connect the machine over an actual socket (the
        #: strict-ordered vs the pipelining client); protocol outcomes
        #: must match the loopbacks.
        self._wire_server = None
        if endpoint is not None:
            # An explicit endpoint URL wins over the legacy transport
            # names; loopback schemes still ride the simulated link.
            if endpoint.startswith(("sl+inproc://", "sl+serialized://")):
                self.endpoint = connect(endpoint, remote=self.remote,
                                        link=self.link)
            else:
                self.endpoint = connect(endpoint,
                                        conditions=self.link.conditions)
        elif transport in ("tcp", "async"):
            from repro.net.aio import AsyncLeaseServer

            self._wire_server = AsyncLeaseServer(self.remote)
            self._wire_server.start()
            io = "async" if transport == "async" else "threads"
            self.endpoint = connect(
                endpoint_for([self._wire_server.address], io=io),
                conditions=self.link.conditions,
            )
        elif transport in ("in-process", "serialized"):
            scheme = ("sl+inproc://" if transport == "in-process"
                      else "sl+serialized://")
            self.endpoint = connect(scheme, remote=self.remote,
                                    link=self.link)
        else:
            raise ValueError(f"unknown deployment transport {transport!r}")
        self.sl_local = SlLocal(
            self.machine,
            self.endpoint,
            KeyGenerator(self.rng.fork("keys")),
            tokens_per_attestation=tokens_per_attestation,
        )
        self.sl_local.init()
        self.tokens_per_attestation = tokens_per_attestation
        self._managers: Dict[str, SlManager] = {}

    def close(self) -> None:
        """Release wire resources (no-op for loopback transports)."""
        try:
            self.endpoint.close()
        except Exception:
            pass
        if self._wire_server is not None:
            self._wire_server.stop()
            self._wire_server = None
        for persistence in self.persistences:
            persistence.close()
        self.persistences = []

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def issue_license(self, license_id: str, total_units: int,
                      kind: LeaseKind = LeaseKind.COUNT,
                      tick_seconds: float = 0.0) -> bytes:
        """Provision a license on the server; returns the user's blob."""
        definition = self.remote.issue_license(
            license_id, total_units, kind=kind, tick_seconds=tick_seconds
        )
        return definition.license_blob()

    def manager_for(self, app_name: str) -> SlManager:
        """The SL-Manager embedded in one application's enclave."""
        if app_name not in self._managers:
            self._managers[app_name] = SlManager(
                app_name,
                self.machine,
                self.sl_local,
                tokens_per_attestation=self.tokens_per_attestation,
            )
        return self._managers[app_name]

    # ------------------------------------------------------------------
    # Running partitioned workloads
    # ------------------------------------------------------------------
    def run_workload(
        self,
        workload: Workload,
        scale: float = 1.0,
        partitioner: Optional[Partitioner] = None,
        license_blob: Optional[bytes] = None,
        lease_manager=None,
    ) -> AppRun:
        """Partition a workload and execute it with live lease checks.

        The key functions inside the enclave call back into the
        application's SL-Manager (``lease_manager`` overrides it, e.g.
        with :class:`FlaasLeaseManager`).
        """
        profiled = workload.run_profiled(scale=scale)
        chooser = partitioner if partitioner is not None else SecureLeasePartitioner()
        partition = chooser.partition(
            profiled.program, profiled.graph, profiled.profile
        )
        return self.run_partitioned(
            workload, partition, scale=scale,
            license_blob=license_blob, lease_manager=lease_manager,
        )

    def run_partitioned(
        self,
        workload: Workload,
        partition: Partition,
        scale: float = 1.0,
        license_blob: Optional[bytes] = None,
        lease_manager=None,
    ) -> AppRun:
        """Execute an already-partitioned workload end to end."""
        program = workload.build_program(scale)
        manager = lease_manager if lease_manager is not None else self.manager_for(
            workload.name
        )
        blob = license_blob if license_blob is not None else workload.valid_license_blob()
        manager.load_license(workload.license_id, blob)

        enclave = self.machine.create_enclave(
            f"app:{workload.name}",
            heap_bytes=max(partition.estimated_memory_bytes, 1 << 20),
        )
        checks = {"count": 0}
        session_grants: Dict[str, bool] = {}

        def lease_checker(license_id: str) -> bool:
            # FaaS add-ons bill per invocation; classic applications
            # obtain one execution grant per run and reuse it.
            if not workload.per_call_billing and license_id in session_grants:
                return session_grants[license_id]
            checks["count"] += 1
            granted = manager.check(license_id)
            if not workload.per_call_billing:
                session_grants[license_id] = granted
            return granted

        cpu = VirtualCpu(
            program,
            self.machine.clock,
            placement=partition.placement(program),
            enclave=enclave,
            lease_checker=lease_checker,
        )
        tracer = Tracer(program)
        cpu.add_observer(tracer)

        start_cycles = self.machine.clock.cycles
        start_local = self.machine.stats.local_attestations
        start_remote = self.machine.stats.remote_attestations
        try:
            result = cpu.run(blob)
        except ExecutionDenied as denial:
            # A key function refused to run (no valid lease): the app
            # dies mid-execution exactly as the paper describes, and
            # callers see a structured denial instead of an exception.
            result = {"status": "DENIED", "reason": str(denial)}
        finally:
            enclave.destroy()
        return AppRun(
            result=result,
            cycles=self.machine.clock.cycles - start_cycles,
            local_attestations=self.machine.stats.local_attestations - start_local,
            remote_attestations=self.machine.stats.remote_attestations - start_remote,
            lease_checks=checks["count"],
        )
