"""Programmatic experiment runners.

Each function regenerates one of the paper's evaluation artifacts and
returns a :class:`repro.reporting.Table` a caller can render as text or
markdown — the same data the pytest-benchmark harness prints, exposed
as a library API (and through ``python -m repro.cli report <name>``).

| Runner | Paper artifact |
|---|---|
| :func:`run_table1` | Table 1 — lease lookup latency |
| :func:`run_table5` | Table 5 — partitioning comparison |
| :func:`run_table6` | Table 6 — SL-Local memory |
| :func:`run_fig8`   | Figure 8 — attestation contention |
| :func:`run_fig9`   | Figure 9 — end-to-end overheads |
| :func:`run_handicap` | Section 6 — attacker handicap (extension) |
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "sweep": "repro.experiments.sweeps",
    "sweep_partition_budget": "repro.experiments.sweeps",
    "sweep_renewal_divisor": "repro.experiments.sweeps",
    "EXPERIMENTS": "repro.experiments.runners",
    "run_fig8": "repro.experiments.runners",
    "run_fig9": "repro.experiments.runners",
    "run_handicap": "repro.experiments.runners",
    "run_table1": "repro.experiments.runners",
    "run_table5": "repro.experiments.runners",
    "run_table6": "repro.experiments.runners",
})
