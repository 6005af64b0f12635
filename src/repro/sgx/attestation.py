"""Local and remote attestation.

Local attestation exchanges hardware-MAC'd reports between two enclaves
on one machine; remote attestation (RA) involves the Intel Attestation
Service and takes 3-4 seconds end to end (Section 2.3).  SecureLease's
entire point is replacing RAs with local attestations plus cached
leases, so the model must make both paths explicit and chargeable.

Identity here is an enclave *measurement* (hash of its code identity).
A report is valid when the MAC verifies and the target measurement
matches, mirroring SGX's EREPORT/EGETKEY flow without modelling the
CMAC construction itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Set

from repro.crypto.hashes import sha256_word
from repro.crypto.hmac import hmac_sha256_word
from repro.sgx.costs import SgxCostModel
from repro.sgx.driver import SgxStats
from repro.sim.clock import Clock


class AttestationError(Exception):
    """Raised when a report fails verification."""


def measure(code_identity: str) -> int:
    """Enclave measurement (MRENCLAVE stand-in): 64-bit hash of identity."""
    return sha256_word(code_identity.encode("utf-8"))


@dataclass(frozen=True)
class AttestationReport:
    """A report binding a source enclave to a target enclave.

    ``mac`` stands in for the hardware CMAC over the report body keyed
    by the target's report key — only the genuine platform can produce
    it, which the simulation encodes by deriving it from both
    measurements plus a platform secret.
    """

    source_measurement: int
    target_measurement: int
    nonce: int
    mac: int

    @staticmethod
    def create(
        source_measurement: int,
        target_measurement: int,
        nonce: int,
        platform_secret: int,
    ) -> "AttestationReport":
        mac = _report_mac(source_measurement, target_measurement, nonce, platform_secret)
        return AttestationReport(source_measurement, target_measurement, nonce, mac)


def _report_mac(src: int, dst: int, nonce: int, secret: int) -> int:
    body = src.to_bytes(8, "big") + dst.to_bytes(8, "big") + nonce.to_bytes(8, "big")
    return hmac_sha256_word(secret.to_bytes(8, "big"), body)


class LocalAttestationAuthority:
    """Per-machine platform: verifies locally generated reports.

    One instance per simulated machine; its ``platform_secret`` models
    the processor's report key hierarchy, shared by all enclaves on the
    machine and by nothing else.
    """

    def __init__(self, clock: Clock, stats: SgxStats, costs: Optional[SgxCostModel] = None,
                 platform_secret: int = 0x5EC0_7EA5_E000_0001) -> None:
        self.clock = clock
        self.stats = stats
        self.costs = costs if costs is not None else SgxCostModel()
        self.platform_secret = platform_secret

    def generate_report(self, source_measurement: int, target_measurement: int,
                        nonce: int) -> AttestationReport:
        """EREPORT: produce a report targeted at another local enclave."""
        return AttestationReport.create(
            source_measurement, target_measurement, nonce, self.platform_secret
        )

    def verify_local(self, report: AttestationReport,
                     expected_source: Optional[int] = None) -> None:
        """Verify a local report; charges the full local-attestation cost.

        Raises :class:`AttestationError` on a bad MAC or an unexpected
        source measurement.
        """
        self.clock.advance(self.costs.local_attestation_cycles)
        self.stats.bump("local_attestations")
        self.stats.charge("local_attestation", self.costs.local_attestation_cycles)
        expected_mac = _report_mac(
            report.source_measurement,
            report.target_measurement,
            report.nonce,
            self.platform_secret,
        )
        if report.mac != expected_mac:
            raise AttestationError("local attestation report MAC mismatch")
        if expected_source is not None and report.source_measurement != expected_source:
            raise AttestationError(
                f"unexpected source measurement {report.source_measurement:#x}"
            )


class RemoteAttestationService:
    """The IAS stand-in: verifies quotes from registered genuine platforms.

    Each verification charges the full 3.5 s round trip to the caller's
    clock — this is the cost SecureLease works so hard to avoid.
    """

    def __init__(self, costs: Optional[SgxCostModel] = None,
                 accept_any_platform: bool = False) -> None:
        self.costs = costs if costs is not None else SgxCostModel()
        self._genuine_platforms: Set[int] = set()
        self.verifications = 0
        self._verifications_lock = threading.Lock()
        #: Enroll platforms on first contact instead of requiring prior
        #: registration.  Only for standalone wire servers (``repro.cli
        #: serve-remote``) whose clients run in other processes; the
        #: security experiments always provision explicitly.
        self.accept_any_platform = accept_any_platform

    def register_platform(self, platform_secret: int) -> None:
        """Provision a platform as genuine (EPID/DCAP enrollment)."""
        self._genuine_platforms.add(platform_secret)

    def verify_remote(self, clock: Clock, stats: SgxStats,
                      report: AttestationReport, platform_secret: int) -> None:
        """Remote attestation of an enclave on the given platform.

        Charges the RA latency, then checks that the platform is
        genuine and the report MAC verifies under that platform's key.
        """
        # The wire servers call this from many dispatch threads with one
        # shared stats object; ``bump`` lets ThreadSafeSgxStats make the
        # increment atomic while the simulation's plain stats stay free.
        clock.advance(self.costs.remote_attestation_cycles)
        stats.bump("remote_attestations")
        stats.charge("remote_attestation", self.costs.remote_attestation_cycles)
        with self._verifications_lock:
            self.verifications += 1
        if self.accept_any_platform:
            self._genuine_platforms.add(platform_secret)
        if platform_secret not in self._genuine_platforms:
            raise AttestationError("platform is not a genuine SGX platform")
        expected_mac = _report_mac(
            report.source_measurement,
            report.target_measurement,
            report.nonce,
            platform_secret,
        )
        if report.mac != expected_mac:
            raise AttestationError("remote attestation quote MAC mismatch")
