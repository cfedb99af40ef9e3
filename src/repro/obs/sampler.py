"""Sim-clock-driven periodic sampling into time series.

A :class:`MetricsSampler` snapshots a
:class:`~repro.obs.registry.MetricsRegistry`'s gauges (by default every
gauge registered at construction time) each ``interval_ns`` of
*simulated* time into :class:`Series`, and shares its series dict with
the registry, so ``registry.to_payload()`` carries the time series
alongside the final counter values.

Sampling scope is declared, not ambient: a series costs a float per
tick in the sampler and again in every copy of the payload (worker
pipe, cache file, ``--metrics-out``), so a caller that needs two
gauges hands over those two.  The point runner does exactly that for
chaos scenarios (:func:`repro.runner.points.simulate_flows`); asking
for sampling with ``--sample-interval-ns`` watches everything.

Typical cadence: one sample per ~10 packet serialization times keeps
the series small (a few hundred points for a quick-preset run) while
still resolving queue-depth excursions around trim/pause events; the
CLI exposes it as ``--sample-interval-ns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.registry import Gauge, MetricsRegistry
from repro.sim.engine import Simulator


@dataclass
class Series:
    """One sampled signal."""

    name: str
    times_ns: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, t: int, v: float) -> None:
        self.times_ns.append(t)
        self.values.append(v)


class MetricsSampler:
    """Samples ``gauges`` (default: every gauge of ``registry``) into
    named :class:`Series`.

    Gauges registered *after* construction are not watched — build the
    network (which registers its gauges) first, then the sampler.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry,
                 interval_ns: int,
                 gauges: Optional[Iterable[Gauge]] = None) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        if gauges is None:
            gauges = registry.gauges()
        self._probes = {gauge.name: gauge.read for gauge in gauges}
        # Share the dict: series appear in registry.to_payload().
        self.series = registry.series = {
            name: Series(name) for name in self._probes}
        self._stop_at: Optional[int] = None
        self._running = False

    def start(self, until_ns: Optional[int] = None) -> None:
        self._stop_at = until_ns
        if not self._running:
            self._running = True
            self._sample()
            self.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        self._stop_at = self.sim.now

    def _sample(self) -> None:
        for name, probe in self._probes.items():
            self.series[name].append(self.sim.now, float(probe()))

    def _tick(self) -> None:
        if self._stop_at is not None and self.sim.now > self._stop_at:
            self._running = False
            return
        self._sample()
        if self._stop_at is None and self.sim.peek_time() is None:
            # Unbounded sampling with nothing else pending: the tick
            # would keep the heap alive forever and every further
            # sample would repeat this one.  Go dormant instead, so a
            # run-to-empty simulation still terminates.
            self._running = False
            return
        self.sim.schedule(self.interval_ns, self._tick)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MetricsSampler(interval={self.interval_ns}ns, "
                f"{len(self.series)} series)")
