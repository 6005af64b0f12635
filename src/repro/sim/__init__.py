"""Deterministic simulation substrate: virtual clock, RNG, event scheduler.

Everything in the reproduction that "takes time" charges cycles to a
:class:`Clock` instead of consuming wall-clock time, which makes every
experiment deterministic and fast.  The :class:`EventScheduler` provides
just enough discrete-event machinery to model concurrent clients hitting
SL-Local (Figure 8) and multi-node lease distribution (Algorithm 1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CPU_FREQ_HZ": "repro.sim.clock",
    "Clock": "repro.sim.clock",
    "DeterministicRng": "repro.sim.rng",
    "Event": "repro.sim.events",
    "EventScheduler": "repro.sim.events",
    "Process": "repro.sim.events",
})
