"""Parallel experiment execution with spec-hash result caching.

The runner turns an experiment into a list of :class:`SweepPoint`\\ s —
one :class:`NetworkSpec` plus JSON-safe parameters each — and executes
them either inline or across a ``multiprocessing`` pool.  Three
properties hold by construction:

* **Determinism** — a point's result depends only on ``(spec, params)``.
  All randomness inside a simulation flows from ``spec.seed`` through
  :class:`repro.sim.rng.SeedSequence`; the worker additionally reseeds
  the *global* :mod:`random` module from a per-point
  ``SeedSequence`` spawn, so results never depend on which pool worker
  picked the point up.  Serial and ``--jobs N`` runs are bit-identical.
* **Caching** — each point is keyed by the canonical hash of
  ``(experiment, point_id, spec, params)`` and its payload persisted to
  an on-disk JSON cache.  A re-run with an unchanged spec executes zero
  simulations.
* **Deterministic merge** — results are returned in sweep-point order
  regardless of worker completion order, and every payload is passed
  through :func:`canonicalize` whether it came from a worker, the
  inline path or the cache, so the merge input is identical either way.

The runner returns payloads and keeps nothing per call: a point's
``metrics``, ``spans`` and ``breakdown`` blocks ride in its payload, and
:func:`repro.experiments.registry.run_sweep` attaches them to the
result.  Only :attr:`ExperimentRunner.simulations_executed` and the
cache's stats count across calls.

Every point runs through :func:`repro.runner.points.simulate_flows`.
This module is harness-side (DESIGN.md "Import layers"): it imports the
spec, never the simulator.  The point runner is imported only when a
point actually executes, so a run served wholly from the cache loads no
simulator code at all.
"""

from __future__ import annotations

import random as _global_random
from typing import Any, NamedTuple, Optional, Sequence

from repro.experiments.spec import NetworkSpec
from repro.runner.cache import ResultCache
from repro.runner.spec_hash import cache_key, canonicalize

#: ``fork`` shares the warm interpreter with workers (cheap, and the
#: parent's imports come along); ``spawn`` is the fallback where fork is
#: unavailable.  Either way results are identical — see module docstring.
_MP_METHODS = ("fork", "spawn")


class SweepPoint(NamedTuple):
    """One shardable unit of an experiment: a spec plus extra inputs.

    ``params`` must be JSON-safe; it reaches
    :func:`~repro.runner.points.simulate_flows` verbatim and
    participates in the cache key.
    """

    point_id: str
    spec: NetworkSpec
    params: dict


def _execute_point(task: tuple[int, str, str, dict, dict]) -> tuple[int, Any]:
    """Run one sweep point (top-level so it pickles into pool workers).

    Reseeds the global RNG from a per-point ``SeedSequence`` spawn
    first, so any component that (incorrectly) reaches for module-level
    :mod:`random` still behaves identically under any worker schedule.
    """
    # Imported here, the one place that uses them: a replay executes no
    # point and so never loads the simulator.
    from repro.runner.points import simulate_flows
    from repro.sim.rng import SeedSequence
    index, experiment, point_id, spec_dict, params = task
    seeds = SeedSequence(int(spec_dict.get("seed", 1))).spawn(
        f"{experiment}:{point_id}")
    _global_random.seed(seeds.stream("global-random").getrandbits(64))
    spec = NetworkSpec.from_dict(spec_dict)
    payload = simulate_flows(spec, params)
    return index, canonicalize(payload)


class ExperimentRunner:
    """Executes sweep points with caching and optional parallelism.

    ``jobs=1`` runs inline (no pool); ``jobs=N`` fans cache misses out
    over N worker processes.  ``cache=None`` builds the default on-disk
    cache; pass ``ResultCache(enabled=False)`` to disable reuse.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 telemetry: Optional[dict] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()
        #: Extra ``telemetry`` param injected into every point (spans,
        #: gauge sampling).  Injection happens *before* cache keys are
        #: computed: a traced run is a different computation, so it must
        #: not serve (or poison) untraced cache entries.
        self.telemetry = telemetry
        #: Simulations actually executed (cache misses) since construction.
        self.simulations_executed = 0

    # ----------------------------------------------------------- execution
    def run_points(self, experiment: str,
                   points: Sequence[SweepPoint]) -> list[Any]:
        """Run every point, serving from cache; returns payloads in
        sweep-point order (cached payloads carry their telemetry too)."""
        if self.telemetry is not None:
            points = [SweepPoint(p.point_id, p.spec,
                                 {**p.params, "telemetry": self.telemetry})
                      for p in points]
        keys = [cache_key(experiment, p.point_id, p.spec, p.params)
                for p in points]
        payloads: dict[int, Any] = {}
        pending: list[tuple[int, str, str, dict, dict]] = []
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = self.cache.get(key)
            if cached is not None:
                payloads[i] = cached
            else:
                pending.append((i, experiment, point.point_id,
                                point.spec.to_dict(), dict(point.params)))

        if pending:
            self.simulations_executed += len(pending)
            if self.jobs > 1 and len(pending) > 1:
                # multiprocessing is imported only where a pool is made:
                # serial runs and cache replays never load it.
                import multiprocessing
                method = next(
                    m for m in _MP_METHODS
                    if m in multiprocessing.get_all_start_methods())
                # Load the point runner and the simulator once, before
                # forking, so every worker inherits them instead of
                # importing them again.
                import repro.runner.points  # noqa: F401
                ctx = multiprocessing.get_context(method)
                workers = min(self.jobs, len(pending))
                with ctx.Pool(processes=workers) as pool:
                    # Unordered for wall-clock; the index restores order.
                    for index, payload in pool.imap_unordered(
                            _execute_point, pending, chunksize=1):
                        payloads[index] = payload
                        self.cache.put(keys[index], payload)
            else:
                for task in pending:
                    index, payload = _execute_point(task)
                    payloads[index] = payload
                    self.cache.put(keys[index], payload)

        return [payloads[i] for i in range(len(points))]


def serial_runner() -> ExperimentRunner:
    """Inline runner with caching off: ``run_experiment``'s default."""
    return ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
