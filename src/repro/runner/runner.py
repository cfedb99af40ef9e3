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

This module is harness-side (DESIGN.md "Import layers"): it imports the
spec, never the simulator.  The point runner is resolved by dotted path
only when a point actually executes, so a run served wholly from the
cache loads no simulator code at all.
"""

from __future__ import annotations

import importlib
import random as _global_random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.experiments.spec import NetworkSpec
from repro.runner.cache import ResultCache
from repro.runner.spec_hash import cache_key, canonicalize

#: ``fork`` shares the warm interpreter with workers (cheap, and the
#: parent's imports come along); ``spawn`` is the fallback where fork is
#: unavailable.  Either way results are identical — see module docstring.
_MP_METHODS = ("fork", "spawn")


@dataclass(frozen=True)
class SweepPoint:
    """One shardable unit of an experiment: a spec plus extra inputs.

    ``params`` must be JSON-safe; it reaches the point runner verbatim
    and participates in the cache key.
    """

    point_id: str
    spec: NetworkSpec
    params: dict = field(default_factory=dict)


def _resolve(dotted: str) -> Callable[[NetworkSpec, dict], Any]:
    """Import ``pkg.module.fn`` and return ``fn``."""
    module_name, _, fn_name = dotted.rpartition(".")
    if not module_name:
        raise ValueError(f"point runner {dotted!r} is not a dotted path")
    fn = getattr(importlib.import_module(module_name), fn_name)
    if not callable(fn):
        raise TypeError(f"point runner {dotted!r} is not callable")
    return fn


def _execute_point(task: tuple[int, str, str, str, dict, dict]) -> tuple[int, Any]:
    """Run one sweep point (top-level so it pickles into pool workers).

    Reseeds the global RNG from a per-point ``SeedSequence`` spawn
    first, so any component that (incorrectly) reaches for module-level
    :mod:`random` still behaves identically under any worker schedule.
    """
    # Imported here, the one place that uses it: a replay executes no
    # point and so never loads the simulator's ``repro.sim`` package.
    from repro.sim.rng import SeedSequence
    index, runner_path, experiment, point_id, spec_dict, params = task
    seeds = SeedSequence(int(spec_dict.get("seed", 1))).spawn(
        f"{experiment}:{point_id}")
    _global_random.seed(seeds.stream("global-random").getrandbits(64))
    spec = NetworkSpec.from_dict(spec_dict)
    payload = _resolve(runner_path)(spec, params)
    return index, canonicalize(payload)


class ExperimentRunner:
    """Executes sweep points with caching and optional parallelism.

    ``jobs=1`` runs inline (no pool); ``jobs=N`` fans cache misses out
    over N worker processes.  ``cache=None`` builds the default on-disk
    cache; pass ``ResultCache(enabled=False)`` to disable reuse.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 mp_method: Optional[str] = None,
                 telemetry: Optional[dict] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()
        #: Start method for the pool; ``None`` picks the first available
        #: of ``_MP_METHODS`` when a pool is actually made.
        self.mp_method = mp_method
        #: Extra ``telemetry`` param injected into every point (spans,
        #: gauge sampling).  Injection happens *before* cache keys are
        #: computed: a traced run is a different computation, so it must
        #: not serve (or poison) untraced cache entries.
        self.telemetry = telemetry
        #: point_id -> metrics payload / span payload / flow breakdowns from the latest run_points call, in
        #: sweep-point order (for JSONL and Perfetto export).
        self.last_metrics: dict[str, Any] = {}
        self.last_spans: dict[str, Any] = {}
        self.last_breakdowns: dict[str, Any] = {}
        #: Experiment key of the latest run_points call.
        self.last_experiment: Optional[str] = None
        #: Simulations actually executed (cache misses) since construction.
        self.simulations_executed = 0

    # ----------------------------------------------------------- execution
    def run_points(self, experiment: str, points: Sequence[SweepPoint],
                   point_runner: str) -> list[Any]:
        """Run every point, serving from cache; returns payloads in order.

        ``point_runner`` is the dotted path of a module-level callable
        ``fn(spec, params) -> payload`` — a path rather than a function
        object so it pickles into pool workers under any start method.
        """
        if self.telemetry is not None:
            points = [SweepPoint(p.point_id, p.spec,
                                 {**p.params, "telemetry": self.telemetry})
                      for p in points]
        keys = [cache_key(experiment, p.point_id, p.spec, p.params)
                for p in points]
        payloads: dict[int, Any] = {}
        pending: list[tuple[int, str, str, str, dict, dict]] = []
        for i, (point, key) in enumerate(zip(points, keys)):
            cached = self.cache.get(key)
            if cached is not None:
                payloads[i] = cached
            else:
                pending.append((i, point_runner, experiment, point.point_id,
                                point.spec.to_dict(), dict(point.params)))

        if pending:
            self.simulations_executed += len(pending)
            if self.jobs > 1 and len(pending) > 1:
                # multiprocessing is imported only where a pool is made:
                # serial runs and cache replays never load it.
                import multiprocessing
                method = self.mp_method or next(
                    m for m in _MP_METHODS
                    if m in multiprocessing.get_all_start_methods())
                # Load the point runner and the simulator once, before
                # forking, so every worker inherits them instead of
                # importing them again.
                _resolve(point_runner)
                importlib.import_module("repro.runner.points")
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

        ordered = [payloads[i] for i in range(len(points))]
        # Harvest telemetry for export.  Cached payloads carry their
        # metrics too, so a fully cache-served run still exports.
        # Consecutive run_points calls for the *same* experiment (an
        # experiment may run several sweeps) accumulate; a new
        # experiment resets the harvest.
        if self.last_experiment != experiment:
            self.last_metrics = {}
            self.last_spans = {}
            self.last_breakdowns = {}
        self.last_experiment = experiment
        for point, payload in zip(points, ordered):
            if isinstance(payload, dict):
                if "metrics" in payload:
                    self.last_metrics[point.point_id] = payload["metrics"]
                if "spans" in payload:
                    self.last_spans[point.point_id] = payload["spans"]
                if "breakdown" in payload:
                    self.last_breakdowns[point.point_id] = payload["breakdown"]
        return ordered


def serial_runner() -> ExperimentRunner:
    """Inline runner with caching off: ``run_experiment``'s default."""
    return ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
