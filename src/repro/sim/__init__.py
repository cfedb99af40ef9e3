"""Discrete-event simulation substrate (clock, events, RNG, units)."""
