"""Virtual cycle clock.

The paper's testbed runs a Core i7-10700 at 2.9 GHz and measures latencies
with ``RDTSC`` (cycles).  We keep the same unit: every simulated operation
advances a :class:`Clock` by a number of cycles, and helpers convert
cycles to seconds/micro-seconds at 2.9 GHz for reporting.
"""

from __future__ import annotations

import threading

#: Clock frequency of the paper's evaluation machine (Table 3).
CPU_FREQ_HZ = 2_900_000_000


class Clock:
    """A monotonically advancing virtual clock measured in CPU cycles."""

    __slots__ = ("_cycles",)

    def __init__(self, start_cycles: int = 0) -> None:
        if start_cycles < 0:
            raise ValueError("start_cycles must be non-negative")
        self._cycles = int(start_cycles)

    @property
    def cycles(self) -> int:
        """Current time in cycles since simulation start."""
        return self._cycles

    @property
    def seconds(self) -> float:
        """Current time in seconds at :data:`CPU_FREQ_HZ`."""
        return self._cycles / CPU_FREQ_HZ

    @property
    def micros(self) -> float:
        """Current time in micro-seconds."""
        return self._cycles / CPU_FREQ_HZ * 1e6

    def advance(self, cycles: int) -> int:
        """Advance the clock by ``cycles`` and return the new time.

        Raises :class:`ValueError` on negative increments: simulated time
        never flows backwards.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance clock by {cycles} cycles")
        self._cycles += int(cycles)
        return self._cycles

    def advance_seconds(self, seconds: float) -> int:
        """Advance the clock by a duration expressed in seconds."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} seconds")
        return self.advance(round(seconds * CPU_FREQ_HZ))

    def advance_to(self, cycles: int) -> int:
        """Move the clock forward to an absolute timestamp.

        Moving to the past raises; moving to the present is a no-op.
        """
        if cycles < self._cycles:
            raise ValueError(
                f"cannot move clock backwards ({cycles} < {self._cycles})"
            )
        self._cycles = int(cycles)
        return self._cycles

    def __repr__(self) -> str:
        return f"Clock(cycles={self._cycles}, seconds={self.seconds:.6f})"


class ThreadSafeClock(Clock):
    """A :class:`Clock` whose advancement is safe under real threads.

    The simulation is single-threaded and keeps the lock-free base
    class; the wire server (:mod:`repro.net.aio`) dispatches handlers
    from many pool threads that all charge the *same* server-owned
    clock, where the unlocked read-modify-write of ``advance`` would
    lose cycles.
    """

    __slots__ = ("_advance_lock",)

    def __init__(self, start_cycles: int = 0) -> None:
        super().__init__(start_cycles)
        self._advance_lock = threading.Lock()

    def advance(self, cycles: int) -> int:
        with self._advance_lock:
            return super().advance(cycles)

    def advance_to(self, cycles: int) -> int:
        with self._advance_lock:
            return super().advance_to(cycles)


def cycles_to_micros(cycles: int) -> float:
    """Convert a cycle count to micro-seconds at the paper's 2.9 GHz."""
    return cycles / CPU_FREQ_HZ * 1e6


def micros_to_cycles(micros: float) -> int:
    """Convert micro-seconds to cycles at the paper's 2.9 GHz."""
    if micros < 0:
        raise ValueError("duration must be non-negative")
    return round(micros * 1e-6 * CPU_FREQ_HZ)


def seconds_to_cycles(seconds: float) -> int:
    """Convert seconds to cycles at the paper's 2.9 GHz."""
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    return round(seconds * CPU_FREQ_HZ)
