"""Experiment harnesses: one module per paper table/figure.

Use :func:`repro.experiments.registry.run_experiment` or the
``dcp-experiment`` CLI to regenerate any result.
"""
