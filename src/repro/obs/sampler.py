"""Sim-clock-driven periodic sampling of registered gauges.

A :class:`MetricsSampler` is an :class:`repro.analysis.timeseries.Sampler`
wired to a :class:`~repro.obs.registry.MetricsRegistry`: each gauge it
is handed (by default every gauge registered at construction time) is
snapshotted each ``interval_ns`` of *simulated* time into a
:class:`repro.analysis.timeseries.Series`, and the resulting series
dict is shared with the registry so ``registry.to_payload()`` carries
the time series alongside the final counter values.

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

from typing import Iterable, Optional

from repro.analysis.timeseries import Sampler
from repro.obs.registry import Gauge, MetricsRegistry
from repro.sim.engine import Simulator


class MetricsSampler(Sampler):
    """Samples ``gauges`` (default: every gauge of ``registry``) into
    time series shared with the registry.

    Gauges registered *after* construction are not watched — build the
    network (which registers its gauges) first, then the sampler.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry,
                 interval_ns: int,
                 gauges: Optional[Iterable[Gauge]] = None) -> None:
        super().__init__(sim, interval_ns)
        self.registry = registry
        if gauges is None:
            gauges = [gauge for _, gauge in registry.gauges()]
        for gauge in gauges:
            self.watch(gauge.name, gauge.read)
        # Share the dict: series appear in registry.to_payload().
        registry.series = self.series

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MetricsSampler(interval={self.interval_ns}ns, "
                f"{len(self.series)} series)")
