"""The point runner: ``simulate_flows(spec, params) -> payload``.

Every sweep point runs through :func:`simulate_flows` ("open these flow
rows, drain, report per-flow stats": the flow-driven figures, the
collectives of fig12/fig14/scale as chained rows, deepdive's incast,
campaigns, the conformance suite), inside a pool worker or inline, and
returns a JSON-safe payload.  This module only writes payloads: a
figure's ``merge`` reads one back with :mod:`repro.analysis.fct`
(slowdowns, switch totals, open flows), its ``queues`` block (switch
queue peaks) and :func:`repro.workload.collective.group_jcts`, which a
cache replay can import without the simulator.

Telemetry: every point carries a ``metrics`` payload (counters are
always on — the registry costs nothing extra once components hold their
counter handles).  Span recording and gauge sampling are opt-in via the
``telemetry`` param the :class:`~repro.runner.runner.ExperimentRunner`
injects, and *participate in the cache key* — a traced run is a
different computation than an untraced one.  Telemetry volume is
opt-in too: a point records the series somebody asked for (all gauges
with ``sample_interval_ns``; a chaos scenario's delivery series
otherwise; none by default)::

    {"telemetry": {"spans": {"max_spans": N},
                   "sample_interval_ns": 20_000,
                   "per_flow": false}}

With ``spans`` present a :class:`repro.obs.spans.SpanTracker` records
per-packet lifecycle intervals and instant markers (drops, trims,
retransmissions, ...), and the payload gains ``spans`` (the raw tracker
snapshot) and ``breakdown`` (per-flow FCT attribution from
:func:`repro.analysis.latency.flow_breakdown`) blocks.  Any other
``telemetry`` key is an error.

Because the payload rides through :func:`canonicalize` like everything
else, metrics survive the result cache and merge deterministically
across workers.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.analysis.fct import goodput_gbps
from repro.analysis.latency import flow_breakdown
from repro.experiments.common import Network, NetworkSpec
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.registry import Gauge, MetricsRegistry
from repro.rnic.base import Flow

#: Fixed FCT histogram buckets (microseconds): sub-RTT to multi-ms tail.
FCT_US_BOUNDS = (10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0,
                 30_000.0, 100_000.0)


class PointTelemetry:
    """A point's ``telemetry`` param, installed while the point runs.

    Holds the point's metrics registry, plus the span tracker when asked
    for; :meth:`report` turns them into payload blocks.  On exit the
    previously installed instruments come back.  An unknown
    ``telemetry`` key raises :class:`ValueError`: a misspelt or retired
    key would otherwise record nothing, silently.
    """

    def __init__(self, params: dict) -> None:
        telemetry = params.get("telemetry") or {}
        known = ("per_flow", "sample_interval_ns", "spans")
        for key in sorted(telemetry):
            if key not in known:
                raise ValueError(f"unknown telemetry key {key!r} "
                                 f"(known: {', '.join(known)})")
        self.registry = MetricsRegistry(
            per_flow=bool(telemetry.get("per_flow")))
        #: Gauge-sampling cadence the user asked for (0: none).
        self.interval_ns = int(telemetry.get("sample_interval_ns", 0))
        self.tracker = self._sampler = None
        span_cfg = telemetry.get("spans")
        if span_cfg is not None:
            self.tracker = spans.SpanTracker(
                max_spans=int(span_cfg.get("max_spans", 1_000_000)))

    def __enter__(self) -> "PointTelemetry":
        self._prev = (metrics.active(), spans.active())
        metrics.install(self.registry)
        if self.tracker is not None:
            spans.install(self.tracker)
        return self

    def __exit__(self, *exc: object) -> None:
        metrics.install(self._prev[0])
        spans.install(self._prev[1])

    def network(self, spec: NetworkSpec) -> Network:
        """Build ``spec``'s network with an ``engine.events`` gauge."""
        net = Network(spec)
        self.registry.gauge("engine.events", net.sim, "events_processed")
        return net

    def sample(self, net: Network, interval_ns: int,
               watched: Optional[list[Gauge]] = None) -> None:
        """Sample ``watched`` (default: every gauge) until :meth:`report`."""
        # Import here: most points never sample.
        from repro.obs.sampler import MetricsSampler
        self._sampler = MetricsSampler(net.sim, self.registry, interval_ns,
                                       watched)
        self._sampler.start()

    def report(self, net: Network, flows: Sequence[Flow]) -> dict[str, Any]:
        """``metrics``, plus ``fluid`` on a hybrid network and
        ``spans``/``breakdown`` when asked for."""
        if self._sampler is not None:
            self._sampler.stop()
        blocks: dict[str, Any] = {"metrics": self.registry.to_payload()}
        if net.fidelity is not None:
            blocks["fluid"] = net.fidelity.summary()
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


def queue_peaks(net: Network) -> dict[str, list[int]]:
    """Port name -> ``[data peak, data limit, ctrl peak, ctrl limit]``
    for every switch port whose data or control queue ever held a
    waiting byte.  A peak is the queue's ``max_bytes_seen``; a limit is
    the depth at which the switch acts on the queue: the trim threshold
    for a trimming data queue, the queue's capacity otherwise."""
    block = {}
    for switch in net.fabric.switches:
        cfg = switch.config
        for port in switch.ports:
            data, ctrl = port.queues
            if data.max_bytes_seen or ctrl.max_bytes_seen:
                block[port.name] = [
                    data.max_bytes_seen,
                    (cfg.trim_threshold_bytes if cfg.enable_trimming
                     else data.capacity_bytes),
                    ctrl.max_bytes_seen, ctrl.capacity_bytes]
    return block


def simulate_flows(spec: NetworkSpec, params: dict) -> dict[str, Any]:
    """Build ``spec``'s network, run the declared flows, report stats.

    ``params``::

        {"flows": [[src, dst, size_bytes, start_ns], ...],
         "max_events": 20_000_000,      # optional drain budget
         "settle_ns": 0,                # optional post-completion drain
         "chaos": {...},                # optional failure scenario
         "telemetry": {...}}            # optional, see module docstring

    A flow may carry a fifth element, its ``tag`` (a campaign posts its
    layer name, e.g. ``"bg"``, ``"incast"``), and a sixth, ``after``:
    the index of an earlier row whose receive completion opens this
    one, at that moment, on the QP its (src, dst) pair already holds (a
    ring-AllReduce step, :mod:`repro.workload.collective`).  The payload
    carries one record per declared row, in row order (FCT and its
    empty-fabric ideal, goodput, packet and timeout counts, the tag; a
    chained row that was never posted has ``completed: False``,
    ``start_ns`` and ``fct_ns`` None), the events processed, a
    ``metrics`` snapshot whose ``switch.<name>.<field>`` counters hold
    the switch totals, and the ``queues`` block of :func:`queue_peaks`
    — enough for FCT/slowdown, JCT and queue-depth analysis without
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
    asked cadence, on chaos and plain points alike.  A chaos point takes
    no chained rows: recovery is read per row from t=0.
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
        rows = params["flows"]
        flows = net.open_rows(rows)
        interval_ns = tel.interval_ns
        watched = None      # the user asked for sampling: every gauge
        if chaos_cfg:
            if None in flows:
                raise ValueError("a chaos point takes no chained rows")
            # Receiver-side delivery progress per flow — the raw series
            # the recovery-time metric is computed from.  Registered
            # before the sampler so it watches them from t=0.
            for i, flow in enumerate(flows):
                tel.registry.gauge(f"chaos.flow.{i}.rx_bytes", flow, "rx_bytes")
            if interval_ns <= 0:
                # Sampling is on only because recovery needs these
                # series, so they are all it records.
                interval_ns = int(chaos_cfg.get("sample_interval_ns", 10_000))
                watched = tel.registry.gauges("chaos.flow.")
        if interval_ns > 0:
            tel.sample(net, interval_ns, watched)
        net.run_until_flows_done(
            max_events=int(params.get("max_events", 20_000_000)),
            settle_ns=int(params.get("settle_ns", 0)))
        records = []
        for row, f in zip(rows, flows):
            if f is None:
                # A chained row whose predecessor never completed.
                src, dst, size = (int(v) for v in row[:3])
                records.append({
                    "src": src, "dst": dst, "size_bytes": size,
                    "start_ns": None, "tag": str(row[4]),
                    "completed": False, "fct_ns": None,
                    "ideal_fct_ns": net.fabric.ideal_fct_ns(src, dst, size),
                    "goodput_gbps": 0.0, "rx_bytes": 0,
                    "data_pkts_sent": 0, "retx_pkts": 0, "timeouts": 0,
                    "dup_pkts_received": 0})
                continue
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
            "end_ns": net.sim.now, "queues": queue_peaks(net),
            **tel.report(net, net.flows),
        }
        if injector is not None:
            from repro.chaos.recovery import chaos_summary
            payload["chaos"] = chaos_summary(net, injector, chaos_cfg,
                                             flows, tel.registry)
        return payload
