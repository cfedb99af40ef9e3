"""Parallel experiment runner with spec-hash result caching.

Public surface, each name from its defining module::

    from repro.runner.cache import ResultCache
    from repro.runner.runner import ExperimentRunner, SweepPoint

    runner = ExperimentRunner(jobs=4)
    payloads = runner.run_points("fig17", points)

Every point runs through :func:`repro.runner.points.simulate_flows`;
cache keys come from :mod:`repro.runner.spec_hash`.  See
:mod:`repro.runner.runner` for the determinism and caching contract.
"""
