"""Chaos campaigns: declarative failure scenarios + recovery metrics.

A scenario is a JSON-safe dict (see :mod:`repro.chaos.scenarios`) that
experiments put in their sweep-point ``params`` under the ``"chaos"``
key, so it participates in the spec-hash cache key and fans out over
``--jobs N`` like any other point input.  The generic point runner
(:func:`repro.runner.points.simulate_flows`) applies the scenario
through the (restore-correct) :class:`repro.net.failures.FailureInjector`,
samples every flow's delivered bytes on the sim clock, and attaches a
``chaos`` block — recovery times, retransmission-storm size, duplicate
deliveries, per-link downtime (:mod:`repro.chaos.recovery`) — to the
point payload.

The ``robustness`` experiment in the registry sweeps scenario x
transport over this machinery.
"""
