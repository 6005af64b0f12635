"""SecureLease core: leases, the lease tree, and the three SL components.

This package is the paper's primary contribution:

* :mod:`repro.core.gcl` — generalized count-based leases modelling all
  four license types (Section 4.3).
* :mod:`repro.core.lease_tree` — the 4-level, 256-fanout lease tree
  with seal-and-evict paging and crash-safe shutdown (Section 5.2.2).
* :mod:`repro.core.lease_store` — the Table 1 storage alternatives.
* :mod:`repro.core.renewal` — adaptive GCL renewal (Algorithm 1).
* :mod:`repro.core.sl_remote` / :mod:`repro.core.sl_local` /
  :mod:`repro.core.sl_manager` — the three-tier lease-management system
  (Figure 3).
* :mod:`repro.core.tokens` — signed tokens of execution, with the
  10-tokens-per-attestation batching optimisation of Section 7.3.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Gcl": "repro.core.gcl",
    "LeaseExpired": "repro.core.gcl",
    "LeaseKind": "repro.core.gcl",
    "ENTRIES_PER_NODE": "repro.core.lease_tree",
    "LEASE_SIZE_BYTES": "repro.core.lease_tree",
    "LEVELS": "repro.core.lease_tree",
    "LeaseNotFound": "repro.core.lease_tree",
    "LeaseRecord": "repro.core.lease_tree",
    "LeaseTree": "repro.core.lease_tree",
    "LeaseTreeError": "repro.core.lease_tree",
    "NODE_SIZE_BYTES": "repro.core.lease_tree",
    "split_lease_id": "repro.core.lease_tree",
    "ArrayLeaseStore": "repro.core.lease_store",
    "LeaseStore": "repro.core.lease_store",
    "MurmurLeaseStore": "repro.core.lease_store",
    "Sha256LeaseStore": "repro.core.lease_store",
    "TreeLeaseStore": "repro.core.lease_store",
    "LicenseLedger": "repro.core.renewal",
    "NodeCondition": "repro.core.renewal",
    "RenewalDecision": "repro.core.renewal",
    "RenewalPolicy": "repro.core.renewal",
    "renew_lease": "repro.core.renewal",
    "AttestRequest": "repro.core.protocol",
    "AttestResponse": "repro.core.protocol",
    "InitRequest": "repro.core.protocol",
    "InitResponse": "repro.core.protocol",
    "RenewRequest": "repro.core.protocol",
    "RenewResponse": "repro.core.protocol",
    "ShutdownNotice": "repro.core.protocol",
    "Status": "repro.core.protocol",
    "SlLocal": "repro.core.sl_local",
    "SlLocalError": "repro.core.sl_local",
    "SlManager": "repro.core.sl_manager",
    "LicenseDefinition": "repro.core.sl_remote",
    "LicenseShardState": "repro.core.sl_remote",
    "LicenseUnknown": "repro.core.sl_remote",
    "SlRemote": "repro.core.sl_remote",
    "ExecutionToken": "repro.core.tokens",
    "TokenError": "repro.core.tokens",
})
