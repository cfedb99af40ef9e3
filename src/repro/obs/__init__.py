"""Unified telemetry: metrics registry, time-series sampling, export.

Public surface::

    from repro.obs import MetricsRegistry, MetricsSampler, metrics

    registry = MetricsRegistry()
    metrics.install(registry)          # components register at build time
    net = build_network(...)           # switches/links/RNICs self-register
    sampler = MetricsSampler(net.sim, registry, interval_ns=20_000)
    sampler.start()
    net.run_until_flows_done()
    payload = registry.to_payload()    # deterministic JSON-safe snapshot
    metrics.install(None)

Disabled (no registry installed) the whole subsystem costs one ``None``
check per component *construction* and nothing per event — the same
discipline as :mod:`repro.sim.trace`.
"""

from repro._lazy import lazy_exports
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.export import (SCHEMA_VERSION, breakdown_records,
                              metrics_records, span_records, trace_records,
                              tracer_payload, write_breakdown_jsonl,
                              write_metrics_jsonl, write_trace_jsonl)
from repro.obs.registry import (Counter, CounterBlock, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.schema import (KNOWN_METRIC_PATTERNS, known_metric,
                              validate_file, validate_lines, validate_path,
                              validate_perfetto)
from repro.obs.spans import (SPAN_KINDS, SpanTracker, perfetto_trace,
                             write_perfetto)


# MetricsSampler is loaded lazily: it pulls in repro.analysis, which
# itself imports repro.rnic.base — and the instrumented components
# (net/, rnic/) import this package at *their* import time, so an
# eager import here would be circular.
__getattr__ = lazy_exports(__name__,
                           {"repro.obs.sampler": ("MetricsSampler",)})

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
    "span_records",
    "spans",
    "trace_records",
    "tracer_payload",
    "validate_file",
    "validate_lines",
    "validate_path",
    "validate_perfetto",
    "write_breakdown_jsonl",
    "write_metrics_jsonl",
    "write_perfetto",
    "write_trace_jsonl",
]
