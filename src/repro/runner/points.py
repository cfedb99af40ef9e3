"""Reusable point runners: module-level ``fn(spec, params) -> payload``.

Point runners execute inside pool workers, so they live at module level
(picklable by dotted path) and must return JSON-safe payloads.  The
generic :func:`simulate_flows` covers the common "open N flows, drain,
report per-flow stats" shape used by the conformance suite, the runner
tests and the quickstart sweep demo; figure-specific runners live next
to their experiment modules.

Telemetry: every point carries a ``metrics`` payload (counters are
always on — the registry costs nothing extra once components hold their
counter handles).  Tracing and gauge sampling are opt-in via the
``telemetry`` param the :class:`~repro.runner.runner.ExperimentRunner`
injects, and *participate in the cache key* — a traced run is a
different computation than an untraced one.  Telemetry volume is
opt-in too: a point records the series somebody asked for (all gauges
with ``sample_interval_ns``; a chaos scenario's delivery series
otherwise; none by default)::

    {"telemetry": {"trace": {"categories": [...], "max_records": N},
                   "spans": {"max_spans": N},
                   "sample_interval_ns": 20_000,
                   "per_flow": false}}

With ``spans`` present a :class:`repro.obs.spans.SpanTracker` records
per-packet lifecycle intervals and the payload gains ``spans`` (the raw
tracker snapshot) and ``breakdown`` (per-flow FCT attribution from
:func:`repro.analysis.latency.flow_breakdown`) blocks.

Because the payload rides through :func:`canonicalize` like everything
else, metrics survive the result cache and merge deterministically
across workers.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.fct import goodput_gbps
from repro.analysis.latency import flow_breakdown
from repro.experiments.common import Network, NetworkSpec
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.export import tracer_payload
from repro.obs.registry import MetricsRegistry
from repro.sim import trace

#: Fixed FCT histogram buckets (microseconds): sub-RTT to multi-ms tail.
FCT_US_BOUNDS = (10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0,
                 30_000.0, 100_000.0)


def simulate_flows(spec: NetworkSpec, params: dict) -> dict[str, Any]:
    """Build ``spec``'s network, run the declared flows, report stats.

    ``params``::

        {"flows": [[src, dst, size_bytes, start_ns], ...],
         "max_events": 20_000_000,      # optional drain budget
         "settle_ns": 0,                # optional post-completion drain
         "chaos": {...},                # optional failure scenario
         "telemetry": {...}}            # optional, see module docstring

    The payload carries one record per flow, in posting order, the total
    events processed, and a ``metrics`` snapshot — enough for
    byte-accounting assertions and goodput/FCT analysis without
    re-running anything.

    ``chaos`` is a declarative failure scenario
    (:mod:`repro.chaos.scenarios`), applied to the built network before
    the run.  It lives in ``params``, so it participates in the cache
    key like every other input.  Chaos runs always sample each flow's
    delivered bytes (gauge ``chaos.flow.<i>.rx_bytes``) — and nothing
    else — at the scenario's ``sample_interval_ns`` and attach a
    ``chaos`` block — recovery times, retransmission-storm size,
    duplicate deliveries, per-link downtime — to the payload
    (:func:`repro.chaos.recovery.chaos_summary`).  Asking for sampling
    (``telemetry.sample_interval_ns > 0``, the CLI's
    ``--sample-interval-ns``) adds a series for every other registered
    gauge — switch queue depths, port busy time, NIC counters — at the
    asked cadence, on chaos and plain points alike.
    """
    telemetry = params.get("telemetry") or {}
    registry = MetricsRegistry(per_flow=bool(telemetry.get("per_flow")))
    prev_registry = metrics.active()
    prev_tracer = trace.active()
    prev_spans = spans.active()
    tracer = None
    trace_cfg = telemetry.get("trace")
    if trace_cfg is not None:
        categories = trace_cfg.get("categories")
        flow_ids = trace_cfg.get("flow_ids")
        tracer = trace.Tracer(
            categories=set(categories) if categories else None,
            flow_ids=set(flow_ids) if flow_ids else None,
            max_records=int(trace_cfg.get("max_records", 100_000)))
    tracker = None
    span_cfg = telemetry.get("spans")
    if span_cfg is not None:
        tracker = spans.SpanTracker(
            max_spans=int(span_cfg.get("max_spans", 1_000_000)))
    metrics.install(registry)
    if tracer is not None:
        trace.install(tracer)
    if tracker is not None:
        spans.install(tracker)
    try:
        net = Network(spec)
        registry.gauge("engine.events",
                       lambda: float(net.sim.events_processed))
        fct_hist = registry.histogram("flow.fct_us", FCT_US_BOUNDS)
        chaos_cfg = params.get("chaos")
        injector = None
        if chaos_cfg:
            # Imported lazily: repro.chaos pulls in the failure layer,
            # which most points never need.
            from repro.chaos.scenarios import apply_scenario
            injector = apply_scenario(net, chaos_cfg)
        flows = [net.open_flow(int(src), int(dst), int(size), int(start))
                 for src, dst, size, start in params["flows"]]
        if tracker is not None:
            for f in flows:
                tracker.note_flow(f.flow_id, f.start_ns)
        sampler = None
        interval_ns = int(telemetry.get("sample_interval_ns", 0))
        watched = None      # the user asked for sampling: every gauge
        if chaos_cfg:
            # Receiver-side delivery progress per flow — the raw series
            # the recovery-time metric is computed from.  Registered
            # before the sampler so it watches them from t=0.
            delivery_gauges = [
                registry.gauge(f"chaos.flow.{i}.rx_bytes",
                               lambda f=flow: float(f.rx_bytes))
                for i, flow in enumerate(flows)]
            if interval_ns <= 0:
                # Sampling is on only because recovery needs these
                # series, so they are all it records.
                interval_ns = int(chaos_cfg.get("sample_interval_ns", 10_000))
                watched = delivery_gauges
        if interval_ns > 0:
            # Import here: the sampler pulls in repro.analysis, which is
            # heavier than this hot module needs by default.
            from repro.obs.sampler import MetricsSampler
            sampler = MetricsSampler(net.sim, registry, interval_ns, watched)
            sampler.start()
        net.run_until_flows_done(
            max_events=int(params.get("max_events", 20_000_000)),
            settle_ns=int(params.get("settle_ns", 0)))
        if sampler is not None:
            sampler.stop()
        records = []
        for f in flows:
            if f.completed:
                fct_hist.observe(f.fct_ns() / 1000.0)
            records.append({
                "src": f.src,
                "dst": f.dst,
                "size_bytes": f.size_bytes,
                "start_ns": f.start_ns,
                "completed": f.completed,
                "fct_ns": f.fct_ns() if f.completed else None,
                "goodput_gbps": goodput_gbps(f) if f.completed else 0.0,
                "rx_bytes": f.rx_bytes,
                "retx_pkts": f.stats.retx_pkts_sent,
                "timeouts": f.stats.timeouts,
                "dup_pkts_received": f.stats.dup_pkts_received,
            })
        payload: dict[str, Any] = {
            "flows": records, "events": net.sim.events_processed,
            "end_ns": net.sim.now, "metrics": registry.to_payload(),
        }
        if injector is not None:
            from repro.chaos.recovery import chaos_summary
            payload["chaos"] = chaos_summary(net, injector, chaos_cfg,
                                             flows, registry)
        if tracer is not None:
            payload["trace"] = tracer_payload(tracer)
        if tracker is not None:
            tracker.finalize(net.sim.now)
            payload["spans"] = tracker.to_payload()
            # Per-flow FCT attribution over the recorded spans; for a
            # stalled flow the window closes at end-of-run so partial
            # time is still attributed (flagged by ``completed``).
            payload["breakdown"] = [
                {"flow_id": f.flow_id, "src": f.src, "dst": f.dst,
                 "completed": f.completed,
                 **flow_breakdown(
                     tracker.spans, f.flow_id, f.start_ns,
                     f.rx_complete_ns if f.completed else net.sim.now)}
                for f in flows]
        return payload
    finally:
        metrics.install(prev_registry)
        trace.install(prev_tracer)
        spans.install(prev_spans)
