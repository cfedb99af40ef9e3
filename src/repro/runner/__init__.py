"""Parallel experiment runner with spec-hash result caching.

Public surface::

    from repro.runner import ExperimentRunner, SweepPoint, ResultCache

    runner = ExperimentRunner(jobs=4)
    payloads = runner.run_points("fig17", points,
                                 "repro.runner.points.simulate_flows")

See :mod:`repro.runner.runner` for the determinism and caching
contract.
"""

from repro.runner.cache import CACHE_VERSION, ResultCache, default_cache_dir
from repro.runner.runner import (ExperimentRunner, SweepPoint,
                                 serial_runner)
from repro.runner.spec_hash import cache_key, canonical_json, canonicalize

__all__ = [
    "CACHE_VERSION",
    "ExperimentRunner",
    "ResultCache",
    "SweepPoint",
    "cache_key",
    "canonical_json",
    "canonicalize",
    "default_cache_dir",
    "serial_runner",
]
