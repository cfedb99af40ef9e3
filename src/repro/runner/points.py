"""Reusable point runners: module-level ``fn(spec, params) -> payload``.

Point runners execute inside pool workers, so they live at module level
(picklable by dotted path) and must return JSON-safe payloads.  Two
generic runners cover nearly every experiment: :func:`simulate_flows`
("open N flows, drain, report per-flow stats": the flow-driven figures,
campaigns, the conformance suite) and :func:`simulate_collectives`
("start one collective per member group, report JCTs": fig12, fig14,
scale).  A figure-specific runner lives next to its experiment module
(deepdive's queue sampler).  This module only writes payloads: a
figure's ``merge`` reads a :func:`simulate_flows` payload back with
:func:`repro.analysis.fct.slowdowns` and
:func:`repro.analysis.fct.switch_total`, which a cache replay can
import without the simulator.

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

import time
from typing import Any, Optional, Sequence

from repro.analysis.fct import goodput_gbps
from repro.analysis.latency import flow_breakdown
from repro.experiments.common import Network, NetworkSpec
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.export import tracer_payload
from repro.obs.registry import Gauge, MetricsRegistry
from repro.rnic.base import Flow
from repro.sim import trace
from repro.workload.collective import AllToAll, RingAllReduce

#: Fixed FCT histogram buckets (microseconds): sub-RTT to multi-ms tail.
FCT_US_BOUNDS = (10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0,
                 30_000.0, 100_000.0)

COLLECTIVES = {"allreduce": RingAllReduce, "alltoall": AllToAll}


class PointTelemetry:
    """A point's ``telemetry`` param, installed while the point runs.

    Holds the point's metrics registry, plus the tracer and span tracker
    when asked for; :meth:`report` turns them into payload blocks.  On
    exit the previously installed instruments come back.
    """

    def __init__(self, params: dict) -> None:
        telemetry = params.get("telemetry") or {}
        self.registry = MetricsRegistry(
            per_flow=bool(telemetry.get("per_flow")))
        #: Gauge-sampling cadence the user asked for (0: none).
        self.interval_ns = int(telemetry.get("sample_interval_ns", 0))
        self.tracer = self.tracker = self._sampler = None
        trace_cfg = telemetry.get("trace")
        if trace_cfg is not None:
            categories = trace_cfg.get("categories")
            flow_ids = trace_cfg.get("flow_ids")
            self.tracer = trace.Tracer(
                categories=set(categories) if categories else None,
                flow_ids=set(flow_ids) if flow_ids else None,
                max_records=int(trace_cfg.get("max_records", 100_000)))
        span_cfg = telemetry.get("spans")
        if span_cfg is not None:
            self.tracker = spans.SpanTracker(
                max_spans=int(span_cfg.get("max_spans", 1_000_000)))

    def __enter__(self) -> "PointTelemetry":
        self._prev = (metrics.active(), trace.active(), spans.active())
        metrics.install(self.registry)
        if self.tracer is not None:
            trace.install(self.tracer)
        if self.tracker is not None:
            spans.install(self.tracker)
        return self

    def __exit__(self, *exc: object) -> None:
        metrics.install(self._prev[0])
        trace.install(self._prev[1])
        spans.install(self._prev[2])

    def network(self, spec: NetworkSpec) -> Network:
        """Build ``spec``'s network with an ``engine.events`` gauge."""
        net = Network(spec)
        self.registry.gauge("engine.events",
                            lambda: float(net.sim.events_processed))
        return net

    def sample(self, net: Network, interval_ns: int,
               watched: Optional[list[Gauge]] = None) -> None:
        """Sample ``watched`` (default: every gauge) until :meth:`report`."""
        # Import here: the sampler pulls in repro.analysis, which is
        # heavier than this hot module needs by default.
        from repro.obs.sampler import MetricsSampler
        self._sampler = MetricsSampler(net.sim, self.registry, interval_ns,
                                       watched)
        self._sampler.start()

    def report(self, net: Network, flows: Sequence[Flow]) -> dict[str, Any]:
        """``metrics``, plus ``fluid`` on a hybrid network and
        ``trace``/``spans``/``breakdown`` when asked for."""
        if self._sampler is not None:
            self._sampler.stop()
        blocks: dict[str, Any] = {"metrics": self.registry.to_payload()}
        if net.fidelity is not None:
            blocks["fluid"] = net.fidelity.summary()
        if self.tracer is not None:
            blocks["trace"] = tracer_payload(self.tracer)
        if self.tracker is not None:
            self.tracker.finalize(net.sim.now)
            blocks["spans"] = self.tracker.to_payload()
            # Per-flow FCT attribution over the recorded spans; for a
            # stalled flow the window closes at end-of-run so partial
            # time is still attributed (flagged by ``completed``).
            blocks["breakdown"] = [
                {"flow_id": f.flow_id, "src": f.src, "dst": f.dst,
                 "completed": f.completed,
                 **flow_breakdown(
                     self.tracker.spans, f.flow_id, f.start_ns,
                     f.rx_complete_ns if f.completed else net.sim.now)}
                for f in flows]
        return blocks


def simulate_flows(spec: NetworkSpec, params: dict) -> dict[str, Any]:
    """Build ``spec``'s network, run the declared flows, report stats.

    ``params``::

        {"flows": [[src, dst, size_bytes, start_ns], ...],
         "max_events": 20_000_000,      # optional drain budget
         "settle_ns": 0,                # optional post-completion drain
         "chaos": {...},                # optional failure scenario
         "telemetry": {...}}            # optional, see module docstring

    A flow may carry a fifth element, its ``tag`` (``"bg"``,
    ``"incast"``).  The payload carries one record per flow, in posting
    order (FCT and its empty-fabric ideal, goodput, packet and timeout
    counts, the tag), the events processed, and a ``metrics`` snapshot
    whose ``switch.<name>.<field>`` counters hold the switch totals —
    enough for FCT/slowdown analysis without re-running anything.

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
    with PointTelemetry(params) as tel:
        net = tel.network(spec)
        fct_hist = tel.registry.histogram("flow.fct_us", FCT_US_BOUNDS)
        chaos_cfg = params.get("chaos")
        injector = None
        if chaos_cfg:
            # Imported lazily: repro.chaos pulls in the failure layer,
            # which most points never need.
            from repro.chaos.scenarios import apply_scenario
            injector = apply_scenario(net, chaos_cfg)
        flows = [net.open_flow(int(src), int(dst), int(size), int(start),
                               tag=str(tag[0]) if tag else "")
                 for src, dst, size, start, *tag in params["flows"]]
        if tel.tracker is not None:
            for f in flows:
                tel.tracker.note_flow(f.flow_id, f.start_ns)
        interval_ns = tel.interval_ns
        watched = None      # the user asked for sampling: every gauge
        if chaos_cfg:
            # Receiver-side delivery progress per flow — the raw series
            # the recovery-time metric is computed from.  Registered
            # before the sampler so it watches them from t=0.
            delivery_gauges = [
                tel.registry.gauge(f"chaos.flow.{i}.rx_bytes",
                                   lambda f=flow: float(f.rx_bytes))
                for i, flow in enumerate(flows)]
            if interval_ns <= 0:
                # Sampling is on only because recovery needs these
                # series, so they are all it records.
                interval_ns = int(chaos_cfg.get("sample_interval_ns", 10_000))
                watched = delivery_gauges
        if interval_ns > 0:
            tel.sample(net, interval_ns, watched)
        net.run_until_flows_done(
            max_events=int(params.get("max_events", 20_000_000)),
            settle_ns=int(params.get("settle_ns", 0)))
        records = []
        for f in flows:
            if f.completed:
                fct_hist.observe(f.fct_ns() / 1000.0)
            records.append({
                "src": f.src,
                "dst": f.dst,
                "size_bytes": f.size_bytes,
                "start_ns": f.start_ns,
                "tag": f.tag,
                "completed": f.completed,
                "fct_ns": f.fct_ns() if f.completed else None,
                "ideal_fct_ns": net.fabric.ideal_fct_ns(f.src, f.dst,
                                                        f.size_bytes),
                "goodput_gbps": goodput_gbps(f) if f.completed else 0.0,
                "rx_bytes": f.rx_bytes,
                "data_pkts_sent": f.stats.data_pkts_sent,
                "retx_pkts": f.stats.retx_pkts_sent,
                "timeouts": f.stats.timeouts,
                "dup_pkts_received": f.stats.dup_pkts_received,
            })
        payload: dict[str, Any] = {
            "flows": records, "events": net.sim.events_processed,
            "end_ns": net.sim.now, **tel.report(net, flows),
        }
        if injector is not None:
            from repro.chaos.recovery import chaos_summary
            payload["chaos"] = chaos_summary(net, injector, chaos_cfg,
                                             flows, tel.registry)
        return payload


def simulate_collectives(spec: NetworkSpec, params: dict) -> dict[str, Any]:
    """Start one collective per member group together; report JCTs.

    ``params``: ``kind`` (``"allreduce"`` | ``"alltoall"``), ``groups``
    (one member list per collective), ``tag`` (flow tags become
    ``<tag>.g<group>``), ``total_bytes`` per collective, ``max_events``
    and the optional ``telemetry``.  The payload carries each group's
    JCT (``jcts_ns``), every flow's FCT (``fcts_ns``, group by group),
    timeout/retransmission totals and ``wall_s`` — build plus run, which
    rides the cache: a replay reports the run that made the entry.
    """
    t0 = time.perf_counter()
    with PointTelemetry(params) as tel:
        net = tel.network(spec)
        collective = COLLECTIVES[params["kind"]]
        groups = [collective(net, members, params["total_bytes"],
                             tag=f"{params['tag']}.g{g}").start()
                  for g, members in enumerate(params["groups"])]
        if tel.interval_ns > 0:
            tel.sample(net, tel.interval_ns)
        net.run_until_flows_done(
            max_events=int(params.get("max_events", 400_000_000)))
        wall_s = time.perf_counter() - t0
        return {
            "hosts": spec.num_hosts,
            "fidelity": spec.fidelity,
            "wall_s": wall_s,
            "events": net.sim.events_processed,
            "flows": len(net.flows),
            "incomplete": sum(1 for f in net.flows if not f.completed),
            "jcts_ns": [g.jct_ns() for g in groups],
            "fcts_ns": [fct for g in groups for fct in g.fcts_ns()],
            "timeouts": sum(f.stats.timeouts for f in net.flows),
            "retx": sum(f.stats.retx_pkts_sent for f in net.flows),
            **tel.report(net, net.flows),
        }
