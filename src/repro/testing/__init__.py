"""Reusable test infrastructure (fault injection for durability tests)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FaultPlan": "repro.testing.faults",
    "FaultyFile": "repro.testing.faults",
    "FaultyOpener": "repro.testing.faults",
    "SimulatedCrash": "repro.testing.faults",
})
