"""Simulated Intel SGX platform.

The reproduction cannot run on SGX hardware, so this package models the
pieces of the platform that the paper's evaluation depends on:

* :mod:`repro.sgx.costs` — the cycle-cost constants (17k/ECALL, 12k/EPC
  fault, 3.5 s remote attestation, 92 MB EPC).
* :mod:`repro.sgx.epc` — a shared enclave page cache with CLOCK eviction.
* :mod:`repro.sgx.enclave` — enclave lifecycle plus the ECALL/OCALL gate.
* :mod:`repro.sgx.attestation` — local and remote attestation flows.
* :mod:`repro.sgx.pcl` — the protected code loader (encrypted enclaves).
* :mod:`repro.sgx.spinlock` — ``sgx_spin_lock`` equivalent.
* :mod:`repro.sgx.driver` — instrumented-driver statistics counters.

:class:`SgxMachine` (:mod:`repro.sgx.machine`) bundles one machine's worth
of platform state.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AttestationError": "repro.sgx.attestation",
    "AttestationReport": "repro.sgx.attestation",
    "LocalAttestationAuthority": "repro.sgx.attestation",
    "RemoteAttestationService": "repro.sgx.attestation",
    "measure": "repro.sgx.attestation",
    "DEFAULT_COSTS": "repro.sgx.costs",
    "EPC_SIZE_BYTES": "repro.sgx.costs",
    "PAGE_SIZE": "repro.sgx.costs",
    "SCALABLE_SGX_COSTS": "repro.sgx.costs",
    "SgxCostModel": "repro.sgx.costs",
    "scaled_latency_costs": "repro.sgx.costs",
    "SgxStats": "repro.sgx.driver",
    "ThreadSafeSgxStats": "repro.sgx.driver",
    "Enclave": "repro.sgx.enclave",
    "EnclaveError": "repro.sgx.enclave",
    "EpcPager": "repro.sgx.epc",
    "SgxMachine": "repro.sgx.machine",
    "PclError": "repro.sgx.pcl",
    "PclKeyServer": "repro.sgx.pcl",
    "SealedCodeSection": "repro.sgx.pcl",
    "load_protected_code": "repro.sgx.pcl",
    "SpinLock": "repro.sgx.spinlock",
})
