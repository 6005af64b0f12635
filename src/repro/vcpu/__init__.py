"""Virtual CPU: the Intel Pin stand-in.

The paper's attacker runs the victim binary on a virtual CPU (Pin) with
full access to registers and memory, flipping branches and skipping
functions.  This package provides the equivalent at function
granularity:

* :mod:`repro.vcpu.program` — a program is a set of functions (Python
  callables over a CPU handle) with static metadata: code size, module,
  data regions, developer annotations (key functions, sensitive data).
* :mod:`repro.vcpu.machine` — the interpreter.  It charges compute
  cycles, routes calls across the enclave boundary (ECALL/OCALL), pages
  trusted data regions through the EPC, and exposes the instrumentation
  hooks an attacker (or a tracer) attaches to.
* :mod:`repro.vcpu.tracer` — records call edges, per-function dynamic
  instruction counts and branch outcomes; builds the call profiles the
  partitioners consume.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DataRegion": "repro.vcpu.program",
    "FunctionSpec": "repro.vcpu.program",
    "Program": "repro.vcpu.program",
    "ExecutionDenied": "repro.vcpu.machine",
    "Placement": "repro.vcpu.machine",
    "VcpuError": "repro.vcpu.machine",
    "VirtualCpu": "repro.vcpu.machine",
    "CallProfile": "repro.vcpu.tracer",
    "Tracer": "repro.vcpu.tracer",
})
