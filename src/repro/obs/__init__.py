"""Unified telemetry: metrics registry, sampling, spans, export.

Public surface::

    from repro.obs import MetricsRegistry, MetricsSampler, metrics

    registry = MetricsRegistry()
    metrics.install(registry)          # components register at build time
    net = build_network(...)           # switches/links/RNICs self-register
    sampler = MetricsSampler(net.sim, registry, interval_ns=20_000)
    sampler.start()                    # registry's gauges -> its series
    net.run_until_flows_done()
    payload = registry.to_payload()    # deterministic JSON-safe snapshot
    metrics.install(None)

Disabled (no registry installed) the whole subsystem costs one ``None``
check per component *construction* and nothing per event.  The flight
recorder, :mod:`repro.obs.spans`, follows the same install/``None``
discipline per emit site.
"""

from repro._lazy import lazy_exports
from repro.obs.export import (SCHEMA_VERSION, breakdown_records,
                              metrics_records, write_breakdown_jsonl,
                              write_metrics_jsonl)


# MetricsSampler is loaded lazily: it imports repro.sim.engine, which
# an import of this harness-side package must not load (DESIGN.md
# "Import layers").  The registry is lazy because a cache replay, which
# only exports payloads, never builds one.  schema and spans are lazy
# because both run as ``python -m``: importing them here would load
# each a second time as ``__main__``.
__getattr__ = lazy_exports(__name__, {
    "repro.obs.registry": ("Counter", "CounterBlock", "Gauge", "Histogram",
                           "MetricsRegistry"),
    "repro.obs.sampler": ("MetricsSampler",),
    "repro.obs.schema": ("KNOWN_METRIC_PATTERNS", "known_metric",
                         "validate_file", "validate_lines", "validate_path",
                         "validate_perfetto"),
    "repro.obs.spans": ("SPAN_KINDS", "SpanTracker", "perfetto_trace",
                        "write_perfetto"),
}, aliases={"metrics": "repro.obs.registry"})

__all__ = [
    "Counter",
    "CounterBlock",
    "Gauge",
    "Histogram",
    "KNOWN_METRIC_PATTERNS",
    "MetricsRegistry",
    "MetricsSampler",
    "SCHEMA_VERSION",
    "SPAN_KINDS",
    "SpanTracker",
    "breakdown_records",
    "known_metric",
    "metrics",
    "metrics_records",
    "perfetto_trace",
    "spans",
    "validate_file",
    "validate_lines",
    "validate_path",
    "validate_perfetto",
    "write_breakdown_jsonl",
    "write_metrics_jsonl",
    "write_perfetto",
]
