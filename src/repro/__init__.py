"""SecureLease reproduction: execution control on a simulated Intel SGX.

Reproduces Kumar, Panda & Sarangi, *"SecureLease: Maintaining Execution
Control in The Wild using Intel SGX"* (Middleware '22) as a pure-Python
library over a simulated SGX platform.

High-level entry points:

* :class:`repro.deployment.SecureLeaseDeployment` — a complete client
  machine with SL-Local, SL-Remote, and per-app SL-Managers.
* :mod:`repro.workloads` — the 11 evaluation workloads of Table 4.
* :mod:`repro.partition` — SecureLease, Glamdring, and F-LaaS
  partitioners plus the SGX cost evaluator.
* :mod:`repro.attacks` — CFB and replay attacks to verify the security
  claims.
* :mod:`repro.core` — GCLs, the 4-level lease tree, Algorithm 1.
* :mod:`repro.sgx` — the simulated SGX platform (EPC, attestation,
  ECALL/OCALL costs).

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the per-table/figure reproduction record.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Cluster": "repro.cluster",
    "ClusterNode": "repro.cluster",
    "NodeSpec": "repro.cluster",
    "AppRun": "repro.deployment",
    "FlaasLeaseManager": "repro.deployment",
    "SecureLeaseDeployment": "repro.deployment",
})
__all__.append("__version__")
