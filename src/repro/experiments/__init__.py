"""Experiment harnesses: one module per paper table/figure.

Use :func:`repro.experiments.registry.run_experiment` or the
``dcp-experiment`` CLI to regenerate any result.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ExperimentResult", "Network", "NetworkSpec", "PRESETS", "REGISTRY",
    "ScalePreset", "build_network", "get_preset", "run_experiment",
]

__getattr__ = lazy_exports(__name__, {
    "repro.experiments.common": ("Network", "build_network"),
    "repro.experiments.spec": ("NetworkSpec",),
    "repro.experiments.presets": ("PRESETS", "ScalePreset", "get_preset"),
    "repro.experiments.registry": ("REGISTRY", "run_experiment"),
    "repro.experiments.result": ("ExperimentResult",),
})
