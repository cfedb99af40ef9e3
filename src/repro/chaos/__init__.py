"""Chaos campaigns: declarative failure scenarios + recovery metrics.

A scenario is a JSON-safe dict (see :mod:`repro.chaos.scenarios`) that
experiments put in their sweep-point ``params`` under the ``"chaos"``
key, so it participates in the spec-hash cache key and fans out over
``--jobs N`` like any other point input.  The generic point runner
(:func:`repro.runner.points.simulate_flows`) applies the scenario
through the (restore-correct) :class:`repro.net.failures.FailureInjector`,
samples every flow's delivered bytes on the sim clock, and attaches a
``chaos`` block — recovery times, retransmission-storm size, duplicate
deliveries, per-link downtime — to the point payload.

The ``robustness`` experiment in the registry sweeps scenario x
transport over this machinery.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCENARIOS",
    "apply_scenario",
    "chaos_summary",
    "delivery_stalls",
    "event_payloads",
    "get_scenario",
    "goodput_recovery",
    "link_flap",
    "loss_burst",
    "pfc_storm",
    "resolve_target",
    "scenario_names",
    "switch_blackout",
]

__getattr__ = lazy_exports(__name__, {
    "repro.chaos.recovery": ("chaos_summary", "delivery_stalls",
                             "goodput_recovery"),
    "repro.chaos.scenarios": ("SCENARIOS", "apply_scenario", "event_payloads",
                              "get_scenario", "link_flap", "loss_burst",
                              "pfc_storm", "resolve_target", "scenario_names",
                              "switch_blackout"),
})
