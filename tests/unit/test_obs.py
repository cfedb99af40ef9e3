"""Unit tests for the repro.obs telemetry layer.

Covers the registry primitives, the CounterBlock migration contract
(attribute API unchanged, live registry views), gauge sampling into
time series, JSONL export + schema validation, the link-drop trace
records, and the headline acceptance property: the sampled queue-depth
series peaks where the tracer recorded trim events.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.common import build_network
from repro.net.link import Link
from repro.obs import registry as metrics
from repro.obs.export import (metrics_records, tracer_payload,
                              write_metrics_jsonl, write_trace_jsonl)
from repro.obs.registry import (Counter, CounterBlock, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.sampler import MetricsSampler
from repro.obs.schema import known_metric, validate_lines, validate_record
from repro.sim import trace
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class _Block(CounterBlock):
    FIELDS = ("hits", "misses")
    __slots__ = FIELDS


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    metrics.install(None)
    trace.install(None)


# ------------------------------------------------------------ primitives
class TestPrimitives:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        c.value += 1
        assert c.value == 6

    def test_gauge_reads_probe(self):
        box = {"v": 3}
        g = Gauge("g", lambda: box["v"])
        assert g.read() == 3.0
        box["v"] = 8
        assert g.read() == 8.0

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", (10.0, 100.0))
        for v in (5, 10, 50, 1000):
            h.observe(v)
        assert h.counts == [2, 1, 1]          # <=10, <=100, overflow
        assert h.total == 4
        assert h.sum == pytest.approx(1065.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (5.0, 5.0))
        with pytest.raises(ValueError):
            Histogram("h", (5.0, 1.0))

    def test_counter_block_attribute_api(self):
        b = _Block()
        b.hits += 3
        b.misses = 2
        assert b.hits == 3
        assert b.as_dict() == {"hits": 3, "misses": 2}
        view = b.counter("hits")
        assert view.value == 3
        b.hits += 1
        assert view.value == 4                # live read-through
        view.inc(2)
        assert b.hits == 6                    # and write-through
        with pytest.raises(KeyError):
            b.counter("nope")


# -------------------------------------------------------------- registry
class TestRegistry:
    def test_disabled_helpers_are_noops(self):
        assert metrics.active() is None
        metrics.register_block("x", _Block())   # must not raise
        metrics.gauge("x.g", lambda: 0.0)

    def test_register_block_exposes_fields_in_order(self):
        reg = MetricsRegistry()
        b = _Block()
        reg.register_block("svc.a", b)
        b.hits += 5
        payload = reg.to_payload()
        assert list(payload["counters"]) == ["svc.a.hits", "svc.a.misses"]
        assert payload["counters"]["svc.a.hits"] == 5

    def test_duplicate_names_get_stable_suffix(self):
        reg = MetricsRegistry()
        reg.register_block("svc", _Block())
        reg.register_block("svc", _Block())
        reg.register_block("svc", _Block())
        names = list(reg.to_payload()["counters"])
        assert "svc.hits" in names
        assert "svc.hits#2" in names and "svc.hits#3" in names

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 7.5)
        h1 = reg.histogram("h", (1.0, 2.0))
        h2 = reg.histogram("h", (9.0,))       # get-or-create: bounds kept
        assert h1 is h2
        h1.observe(1.5)
        payload = reg.to_payload()
        assert payload["gauges"]["g"] == 7.5
        assert payload["histograms"]["h"]["bounds"] == [1.0, 2.0]
        assert payload["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_payload_is_json_safe(self):
        reg = MetricsRegistry()
        reg.register_block("svc", _Block())
        reg.gauge("g", lambda: 1)
        reg.histogram("h", (1.0,)).observe(0.5)
        json.dumps(reg.to_payload())          # must not raise


# --------------------------------------------------------------- sampler
class TestSampler:
    def test_samples_all_gauges_into_registry_series(self):
        sim = Simulator()
        reg = MetricsRegistry()
        box = {"v": 0.0}
        reg.gauge("q.depth", lambda: box["v"])
        sampler = MetricsSampler(sim, reg, interval_ns=100)
        sampler.start(until_ns=500)
        sim.schedule(250, lambda: box.__setitem__("v", 9.0))
        sim.run(until=1_000)
        series = reg.to_payload()["series"]["q.depth"]
        assert series["times_ns"] == [0, 100, 200, 300, 400, 500]
        assert series["values"][-1] == 9.0
        assert series["values"][0] == 0.0


# ---------------------------------------------------------------- export
class TestExport:
    def _payload(self):
        reg = MetricsRegistry()
        b = _Block()
        reg.register_block("svc", b)
        b.hits += 2
        reg.gauge("link.l0.g", lambda: 1.0)
        return reg.to_payload()

    def test_metrics_jsonl_round_trip_and_determinism(self):
        by_point = {"p0": self._payload(), "p1": self._payload()}
        buf1, buf2 = io.StringIO(), io.StringIO()
        n1 = write_metrics_jsonl(buf1, "unit", by_point)
        n2 = write_metrics_jsonl(buf2, "unit", by_point)
        assert buf1.getvalue() == buf2.getvalue()      # byte-identical
        assert n1 == n2 == len(buf1.getvalue().splitlines())
        meta = json.loads(buf1.getvalue().splitlines()[0])
        assert meta["type"] == "meta" and meta["points"] == ["p0", "p1"]

    def test_metrics_jsonl_bytes_are_pinned(self):
        # The export format, byte for byte: a faster encoder may not
        # move key order, separators or float rendering unnoticed.
        by_point = {"p0": {
            "counters": {"svc.hits": 2, "svc.misses": 0},
            "gauges": {"link.l0.g": 1.0, "ratio": 0.1},
            "histograms": {"flow.fct_us": {
                "bounds": [10.0, 1e3], "counts": [0, 1, 0],
                "total": 1, "sum": 12.5}},
            "series": {"q": {"times_ns": [0, 20_000],
                             "values": [0.0, 1e-09]}},
        }}
        buf = io.StringIO()
        assert write_metrics_jsonl(buf, "unit", by_point) == 7
        assert buf.getvalue() == (
            '{"experiment":"unit","points":["p0"],"schema":1,"type":"meta"}\n'
            '{"experiment":"unit","name":"svc.hits","point":"p0",'
            '"type":"counter","value":2}\n'
            '{"experiment":"unit","name":"svc.misses","point":"p0",'
            '"type":"counter","value":0}\n'
            '{"experiment":"unit","name":"link.l0.g","point":"p0",'
            '"type":"gauge","value":1.0}\n'
            '{"experiment":"unit","name":"ratio","point":"p0",'
            '"type":"gauge","value":0.1}\n'
            '{"bounds":[10.0,1000.0],"counts":[0,1,0],"experiment":"unit",'
            '"name":"flow.fct_us","point":"p0","sum":12.5,"total":1,'
            '"type":"histogram"}\n'
            '{"experiment":"unit","name":"q","point":"p0",'
            '"times_ns":[0,20000],"type":"series","values":[0.0,1e-09]}\n')

    def test_tracer_payload_and_trace_jsonl(self):
        tracer = Tracer(max_records=2)
        trace.install(tracer)
        trace.emit(5, "trim", "leaf0", flow_id=1, psn=2)
        trace.emit(6, "drop", "leaf0", flow_id=1, psn=3, reason="forced")
        trace.emit(7, "drop", "leaf0", flow_id=1, psn=4, reason="forced")
        payload = tracer_payload(tracer)
        assert payload["records"] == [[5, "trim", "leaf0",
                                       {"flow_id": 1, "psn": 2}],
                                      [6, "drop", "leaf0",
                                       {"flow_id": 1, "psn": 3,
                                        "reason": "forced"}]]
        assert payload["dropped_records"] == 1
        buf = io.StringIO()
        n = write_trace_jsonl(buf, "unit", {"p0": payload})
        lines = buf.getvalue().splitlines()
        assert n == len(lines) == 3
        assert json.loads(lines[0])["dropped_records"] == {"p0": 1}
        assert json.loads(lines[1])["category"] == "trim"


# ---------------------------------------------------------------- schema
class TestSchema:
    @pytest.mark.parametrize("name", [
        "engine.events", "flow.fct_us", "flow.7000001.data_pkts_sent",
        "link.host0->host1.delivered_bytes", "link.l0.dropped_link_down",
        "nic.nic3.tx_packets", "rnic.dcp0.retx_pkts",
        "rnic.irn2.inflight_bytes", "switch.leaf0.trimmed",
        "switch.leaf0.p3.data_bytes", "pfc.leaf1.paused_ports",
        "switch.leaf0.trimmed#2",
    ])
    def test_catalog_accepts_known_names(self, name):
        assert known_metric(name)

    @pytest.mark.parametrize("name", [
        "engine.event", "switch.leaf0.bogus", "rnic.dcp0.", "madeup.thing",
        "flow.abc.data_pkts_sent", "switch.leaf0.p3.weird",
    ])
    def test_catalog_rejects_unknown_names(self, name):
        assert not known_metric(name)

    def test_validate_record_shapes(self):
        good = {"type": "counter", "experiment": "e", "point": "p",
                "name": "engine.events", "value": 3}
        assert validate_record(good) == []
        assert validate_record({**good, "value": -1})
        assert validate_record({**good, "value": True})
        assert validate_record({**good, "name": "nope.metric"})
        assert validate_record({"type": "martian"})
        bad_hist = {"type": "histogram", "experiment": "e", "point": "p",
                    "name": "flow.fct_us", "bounds": [1.0], "counts": [1],
                    "total": 1, "sum": 0.5}
        assert validate_record(bad_hist)      # needs len(bounds)+1 counts

    def test_validate_lines(self):
        lines = [
            json.dumps({"type": "meta", "schema": 1, "experiment": "e",
                        "points": []}),
            "{broken",
            json.dumps({"type": "gauge", "experiment": "e", "point": "p",
                        "name": "unknown.g", "value": 1.0}),
        ]
        errors = validate_lines(lines)
        assert len(errors) == 2
        assert "line 2" in errors[0] and "line 3" in errors[1]
        assert validate_lines([]) == ["file contains no records"]


# --------------------------------------------------- link drop visibility
class TestLinkDropTracing:
    def _link(self, **kwargs):
        sim = Simulator()

        class _Sink:
            def receive(self, packet, in_port):
                pass

        return sim, Link(sim, _Sink(), 0, prop_delay_ns=10, name="l0",
                         **kwargs)

    def _packet(self):
        from repro.net.packet import make_data_packet
        return make_data_packet(0, 1, flow_id=42, qpn=1, src_qpn=2, psn=7,
                                msn=0, payload=1000, mtu_payload=1000,
                                msg_len_pkts=1, msg_len_bytes=1000,
                                msg_offset_pkts=0, dcp=False)

    def test_down_link_drop_is_counted_and_traced(self):
        tracer = Tracer()
        trace.install(tracer)
        sim, link = self._link()
        link.up = False
        link.deliver(self._packet())
        assert link.stats.dropped_link_down == 1
        assert link.stats.dropped_loss == 0    # loss counted separately
        assert link.stats.delivered_packets == 0
        (rec,) = tracer.records
        assert rec.category == "drop"
        assert rec.detail == {"flow_id": 42, "psn": 7, "reason": "link_down"}

    def test_injected_loss_drop_is_traced_with_reason(self):
        tracer = Tracer()
        trace.install(tracer)
        sim, link = self._link(loss_rate=0.999, loss_seed=3)
        for _ in range(8):
            link.deliver(self._packet())
        assert link.stats.dropped_loss > 0
        assert link.stats.dropped_link_down == 0
        assert {r.detail["reason"] for r in tracer.records} == {"loss"}


# ------------------------------------------- end-to-end (acceptance prop)
class TestEndToEnd:
    def test_instrumented_network_registers_expected_metrics(self):
        reg = MetricsRegistry()
        metrics.install(reg)
        net = build_network(transport="dcp", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0,
                            lb="ar", seed=3, buffer_bytes=300_000)
        payload = reg.to_payload()
        names = (list(payload["counters"]) + list(payload["gauges"]))
        assert all(known_metric(n) for n in names), \
            [n for n in names if not known_metric(n)]
        assert any(n.startswith("switch.leaf0.") for n in names)
        assert any(n.startswith("link.") for n in names)
        assert any(n.endswith(".inflight_bytes") for n in names)
        assert any(".p0.data_bytes" in n for n in names)

    def test_queue_depth_peak_coincides_with_trim_events(self):
        """Fig 8-style check: the sampled data-queue series must peak
        in the neighbourhood of the trim events the tracer recorded."""
        interval = 5_000
        reg = MetricsRegistry()
        tracer = Tracer(categories={"trim"})
        metrics.install(reg)
        trace.install(tracer)
        net = build_network(transport="dcp", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0,
                            lb="ar", seed=3, buffer_bytes=300_000)
        sampler = MetricsSampler(net.sim, reg, interval_ns=interval)
        sampler.start()
        flows = [net.open_flow(s, 7, 60_000, 0) for s in range(4)]
        net.run_until_flows_done(max_events=20_000_000)
        sampler.stop()
        assert all(f.completed for f in flows)
        assert tracer.records, "incast at 10G must trim"
        trim_times = [r.time_ns for r in tracer.records]

        series = reg.to_payload()["series"]
        data_series = [s for n, s in series.items()
                       if ".data_bytes" in n and max(s["values"], default=0) > 0]
        assert data_series, "some data queue must have built up"
        deepest = max(data_series, key=lambda s: max(s["values"]))
        peak_i = deepest["values"].index(max(deepest["values"]))
        peak_t = deepest["times_ns"][peak_i]
        # Trimming triggers while the queue is past threshold, so the
        # deepest sample must sit within one sampling interval of some
        # recorded trim event.
        assert min(abs(peak_t - t) for t in trim_times) <= interval

    def test_simulate_flows_payload_carries_metrics_and_trace(self):
        from repro.experiments.common import NetworkSpec
        from repro.runner.points import simulate_flows
        spec = NetworkSpec(transport="dcp", topology="direct", num_hosts=2,
                           link_rate=10.0, loss_rate=0.05, seed=5)
        params = {"flows": [[0, 1, 60_000, 0]],
                  "telemetry": {"trace": {"categories": ["drop", "retx"]},
                                "sample_interval_ns": 10_000}}
        payload = simulate_flows(spec, params)
        assert payload["flows"][0]["completed"]
        m = payload["metrics"]
        assert m["counters"]["link.host0->host1.dropped_loss"] > 0
        assert m["histograms"]["flow.fct_us"]["total"] == 1
        assert any(v["values"] for v in m["series"].values())
        cats = {r[1] for r in payload["trace"]["records"]}
        assert "drop" in cats
        # the installed globals were restored afterwards
        assert metrics.active() is None
        assert trace.active() is None
