"""Discrete-event simulation substrate (clock, events, RNG, units)."""

from repro._lazy import lazy_exports

__all__ = [
    "CancelledToken",
    "Entity",
    "Simulator",
    "SeedSequence",
    "run_until_quiet",
    "units",
]

__getattr__ = lazy_exports(__name__, {
    "repro.sim.engine": ("CancelledToken", "Entity", "Simulator",
                         "run_until_quiet"),
    "repro.sim.rng": ("SeedSequence",),
})
