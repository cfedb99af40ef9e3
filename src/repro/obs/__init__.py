"""Unified telemetry: metrics registry, sampling, spans, export.

Public surface, each name from its defining module::

    from repro.obs import registry as metrics
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sampler import MetricsSampler

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
discipline per emit site.  :mod:`repro.obs.export` writes payloads as
JSONL, and :mod:`repro.obs.schema` validates it (``python -m``).
"""
