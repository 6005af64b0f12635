"""One SGX-capable machine: the platform state an enclave runs on."""

from __future__ import annotations

from typing import Optional

from repro.sgx.attestation import LocalAttestationAuthority, measure
from repro.sgx.costs import SgxCostModel
from repro.sgx.driver import SgxStats
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcPager
from repro.sim.clock import Clock


class SgxMachine:
    """One SGX-capable machine: clock, stats, pager, attestation authority."""

    def __init__(self, name: str = "machine",
                 clock: Optional[Clock] = None,
                 costs: Optional[SgxCostModel] = None,
                 platform_secret: Optional[int] = None) -> None:
        self.name = name
        self.clock = clock if clock is not None else Clock()
        self.costs = costs if costs is not None else SgxCostModel()
        self.stats = SgxStats()
        self.pager = EpcPager(self.clock, self.stats, self.costs)
        secret = platform_secret if platform_secret is not None else (
            measure(f"platform:{name}")
        )
        self.platform_secret = secret
        self.local_authority = LocalAttestationAuthority(
            self.clock, self.stats, self.costs, platform_secret=secret
        )

    def create_enclave(self, name: str, heap_bytes: int = 1 << 20) -> Enclave:
        """Build and launch an enclave on this machine."""
        return Enclave(
            name=name,
            clock=self.clock,
            stats=self.stats,
            pager=self.pager,
            heap_bytes=heap_bytes,
            costs=self.costs,
        )
