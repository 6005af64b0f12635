"""Application partitioning: SecureLease's scheme and the two baselines.

Given a program, its call-graph profile, and an SGX budget, a
partitioner decides which functions migrate into the enclave:

* :mod:`repro.partition.securelease` — the paper's dependency-based
  scheme (Section 4.2.1): K-means clusters of the CFG are migrated
  whole, smallest-memory first, under the EPC budget ``m_t`` and the
  overhead budget ``r_t``; the authentication module always migrates.
* :mod:`repro.partition.glamdring` — the data-flow baseline: everything
  reachable from sensitive data migrates (Lind et al., ATC '17).
* :mod:`repro.partition.flaas` — the out-degree baseline: functions
  making the most calls migrate (Kumar et al., SCC '19), which shreds
  clusters and produces pathological ECALL counts.
* :mod:`repro.partition.evaluator` — replays a profile against a
  partition on the SGX cost model and reports Table 5's metrics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Partition": "repro.partition.base",
    "Partitioner": "repro.partition.base",
    "SecureLeasePartitioner": "repro.partition.securelease",
    "GlamdringPartitioner": "repro.partition.glamdring",
    "FlaasPartitioner": "repro.partition.flaas",
    "PartitionCostReport": "repro.partition.evaluator",
    "PartitionEvaluator": "repro.partition.evaluator",
})
