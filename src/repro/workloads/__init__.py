"""The 11 evaluation workloads of Table 4, as real scaled programs.

Each workload genuinely executes its algorithm (the B-Tree really
splits nodes, the JSON parser is a real recursive-descent parser, the
AES pipeline uses the from-scratch cipher) while reporting
representative instruction counts and region touches to the vCPU.
Declared data-region sizes mirror the paper's footprints so the EPC
cost model sees the same pressure the authors measured.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Workload": "repro.workloads.base",
    "WorkloadRun": "repro.workloads.base",
    "add_auth_module": "repro.workloads.base",
    "expected_license_blob": "repro.workloads.base",
    "FAAS_WORKLOADS": "repro.workloads.registry",
    "WORKLOAD_CLASSES": "repro.workloads.registry",
    "all_workloads": "repro.workloads.registry",
    "get_workload": "repro.workloads.registry",
})
