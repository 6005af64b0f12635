"""Driver-style statistics counters.

The authors modified the Intel SGX Linux driver to count page evictions,
allocations, and load-backs (Section 7.1).  :class:`SgxStats` plays the
same role for the simulator: every SGX-model component reports events
into one of these, and the benchmark harnesses read them out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SgxStats:
    """Event counters mirroring the instrumented SGX driver."""

    ecalls: int = 0
    ocalls: int = 0
    epc_faults: int = 0
    epc_evictions: int = 0
    epc_allocations: int = 0
    epc_loadbacks: int = 0
    local_attestations: int = 0
    remote_attestations: int = 0
    #: Cycles attributable to each event class, keyed by event name.
    cycles_by_event: Dict[str, int] = field(default_factory=dict)

    def bump(self, counter: str, count: int = 1) -> None:
        """Increment one named counter.

        The single-threaded simulation uses plain ``+=`` everywhere and
        loses nothing; code that may share a stats object across real
        threads (the wire servers' dispatch paths) must go through this
        method so :class:`ThreadSafeSgxStats` can make the
        read-modify-write atomic.
        """
        setattr(self, counter, getattr(self, counter) + count)

    def charge(self, event: str, cycles: int) -> None:
        """Attribute ``cycles`` to an event class."""
        self.cycles_by_event[event] = self.cycles_by_event.get(event, 0) + cycles

    def total_overhead_cycles(self) -> int:
        """All cycles charged to SGX events."""
        return sum(self.cycles_by_event.values())

    def merged_with(self, other: "SgxStats") -> "SgxStats":
        """Combine two counters (e.g. across enclaves) into a new one."""
        merged = SgxStats(
            ecalls=self.ecalls + other.ecalls,
            ocalls=self.ocalls + other.ocalls,
            epc_faults=self.epc_faults + other.epc_faults,
            epc_evictions=self.epc_evictions + other.epc_evictions,
            epc_allocations=self.epc_allocations + other.epc_allocations,
            epc_loadbacks=self.epc_loadbacks + other.epc_loadbacks,
            local_attestations=self.local_attestations + other.local_attestations,
            remote_attestations=self.remote_attestations + other.remote_attestations,
        )
        merged.cycles_by_event = dict(self.cycles_by_event)
        for event, cycles in other.cycles_by_event.items():
            merged.cycles_by_event[event] = merged.cycles_by_event.get(event, 0) + cycles
        return merged

    def reset(self) -> None:
        """Zero all counters in place."""
        self.ecalls = 0
        self.ocalls = 0
        self.epc_faults = 0
        self.epc_evictions = 0
        self.epc_allocations = 0
        self.epc_loadbacks = 0
        self.local_attestations = 0
        self.remote_attestations = 0
        self.cycles_by_event.clear()


class ThreadSafeSgxStats(SgxStats):
    """An :class:`SgxStats` whose increments are atomic under threads.

    The wire server (:mod:`repro.net.aio`) hands one shared stats
    object to handlers running on many dispatch threads at once.  The counters stay observability-only — a lost
    increment never affects protocol state — but the benchmark reports
    read them, and an unlocked ``+=`` under an 8-thread renewal storm
    silently undercounts.  Locking lives here so the single-threaded
    simulation keeps its zero-overhead plain ``+=``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._bump_lock = threading.Lock()

    def bump(self, counter: str, count: int = 1) -> None:
        with self._bump_lock:
            super().bump(counter, count)

    def charge(self, event: str, cycles: int) -> None:
        with self._bump_lock:
            super().charge(event, cycles)
