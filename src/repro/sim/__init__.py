"""Discrete-event simulation substrate (clock, events, RNG, units)."""

from repro._lazy import lazy_exports

__all__ = [
    "CancelledToken",
    "Simulator",
    "SeedSequence",
    "units",
]

__getattr__ = lazy_exports(__name__, {
    "repro.sim.engine": ("CancelledToken", "Simulator"),
    "repro.sim.rng": ("SeedSequence",),
})
