"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures at the
``quick`` preset and asserts the result *shape* the paper reports (who
wins, roughly by how much).  Simulation benchmarks run a single round:
the interesting number is the regenerated table, not the harness's own
wall time.

Benchmarks execute through :class:`repro.runner.ExperimentRunner` with
the cache *disabled* — a benchmark that read its result from disk would
time nothing.  Set ``REPRO_BENCH_JOBS=N`` to fan the sweep points out
over N processes (results are identical either way; only wall time
changes).
"""

from __future__ import annotations

import os

from repro.experiments.registry import run_experiment
from repro.runner import ExperimentRunner, ResultCache


def bench_runner() -> ExperimentRunner:
    """Cache-free runner honouring ``REPRO_BENCH_JOBS`` (default serial)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return ExperimentRunner(jobs=jobs, cache=ResultCache(enabled=False))


def run_once(benchmark, fn, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)


def run_key(benchmark, key: str, **kwargs):
    """Regenerate experiment ``key`` once, through the cache-free runner."""
    return run_once(benchmark, run_experiment, key=key,
                    runner=bench_runner(), **kwargs)
