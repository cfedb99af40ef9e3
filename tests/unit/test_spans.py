"""Unit tests for the span flight recorder and FCT latency attribution.

Covers the SpanTracker recording surface (queue/serialization/
propagation/pause/retx_stall spans, markers and their detail, the shared
max_spans budget), the receiver-side reorder hole tracking, the exact
partition contract of flow_breakdown, the Perfetto conversion (and its
schema validator), and the breakdown JSONL record validation.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.latency import COMPONENTS, breakdown_rows, flow_breakdown
from repro.obs import schema, spans
from repro.obs.export import breakdown_records, write_breakdown_jsonl
from repro.obs.schema import (validate_path, validate_perfetto,
                              validate_record)
from repro.obs.spans import (SPAN_KINDS, SpanTracker, perfetto_events,
                             perfetto_trace, write_perfetto)


class _Pkt:
    def __init__(self, uid: int, flow_id: int, size_bytes: int = 1000):
        self.uid = uid
        self.flow_id = flow_id
        self.size_bytes = size_bytes


@pytest.fixture(autouse=True)
def _clean_global():
    yield
    spans.install(None)


# ---------------------------------------------------------------- tracker
class TestSpanTracker:
    def test_disabled_by_default(self):
        assert spans.active() is None

    def test_install_and_active(self):
        t = SpanTracker()
        spans.install(t)
        assert spans.active() is t
        spans.install(None)
        assert spans.active() is None

    def test_port_tx_emits_queue_and_serialization(self):
        t = SpanTracker()
        pkt = _Pkt(uid=7, flow_id=3)
        t.note_enqueue(pkt.uid, 100)
        t.port_tx(pkt, 1_000, ser_ns=200, actor="leaf0.p1")
        assert t.spans == [
            (100, 800, "queue", 3, 7, "leaf0.p1"),
            (800, 1_000, "serialization", 3, 7, "leaf0.p1"),
        ]

    def test_immediate_tx_skips_zero_length_queue_span(self):
        t = SpanTracker()
        pkt = _Pkt(uid=7, flow_id=3)
        t.note_enqueue(pkt.uid, 800)
        t.port_tx(pkt, 1_000, ser_ns=200, actor="p")
        assert [s[2] for s in t.spans] == ["serialization"]

    def test_propagation_span_covers_flight_time(self):
        t = SpanTracker()
        t.propagate(_Pkt(1, 2), 50, prop_ns=500, actor="l0")
        assert t.spans == [(50, 550, "propagation", 2, 1, "l0")]

    def test_pause_resume_and_finalize(self):
        t = SpanTracker()
        t.pause("nic0", 10)
        t.pause("nic0", 20)            # nested pause keeps first start
        t.resume("nic0", 100)
        t.pause("nic1", 200)
        t.finalize(300)                # still-paused actor closed at end
        assert (10, 100, "pause", -1, -1, "nic0") in t.spans
        assert (200, 300, "pause", -1, -1, "nic1") in t.spans

    def test_timeout_spans_stall_since_last_progress(self):
        t = SpanTracker()
        t.note_flow(5, 0)
        t.data_arrival(5, 0, 1_000, "rnic5")
        t.timeout(5, 9_000, "rnic5", {})
        t.timeout(5, 12_000, "rnic5", {})  # second stall: only new silence
        stalls = [s for s in t.spans if s[2] == "retx_stall"]
        assert stalls == [(1_000, 9_000, "retx_stall", 5, -1, "rnic5"),
                          (9_000, 12_000, "retx_stall", 5, -1, "rnic5")]
        assert [m[1] for m in t.marks] == ["timeout", "timeout"]

    def test_retransmit_marks(self):
        t = SpanTracker()
        t.mark(77, "retx", 4, "rnic4", {})
        t.timeout(4, 90, "dcp4", {"msn": 2, "sretry": 1})
        assert t.marks == [(77, "retx", 4, "rnic4", {}),
                           (90, "timeout", 4, "dcp4", {"msn": 2, "sretry": 1})]

    def test_max_spans_budget_shared_with_marks(self):
        t = SpanTracker(max_spans=3)
        t.add(0, 1, "queue", 1, 1, "a")
        t.mark(2, "retx", 1, "a", {})
        t.add(3, 4, "queue", 1, 2, "a")
        t.add(5, 6, "queue", 1, 3, "a")     # over budget
        t.mark(7, "drop", 1, "a", {"psn": 3, "reason": "loss"})  # over
        assert len(t.spans) + len(t.marks) == 3
        assert t.dropped_spans == 2

    def test_payload_shape(self):
        t = SpanTracker()
        t.add(0, 5, "queue", 1, 2, "a")
        t.mark(3, "trim", 1, "a", {"psn": 9})
        payload = t.to_payload()
        assert payload["spans"] == [[0, 5, "queue", 1, 2, "a"]]
        assert payload["marks"] == [[3, "trim", 1, "a", {"psn": 9}]]
        assert payload["dropped_spans"] == 0
        assert payload["reorder_resets"] == 0
        json.dumps(payload)                  # JSON-safe


# ------------------------------------------------------------ reorder holes
class TestReorderTracking:
    def test_in_order_arrivals_emit_nothing(self):
        t = SpanTracker()
        for psn, now in ((0, 10), (1, 20), (2, 30)):
            t.data_arrival(9, psn, now, "r")
        assert t.spans == []

    def test_hole_repair_emits_reorder_span(self):
        t = SpanTracker()
        t.data_arrival(9, 0, 10, "r")
        t.data_arrival(9, 2, 20, "r")      # hole at psn 1 opens
        t.data_arrival(9, 3, 30, "r")
        t.data_arrival(9, 1, 90, "r")      # hole repaired
        assert t.spans == [(20, 90, "reorder", 9, -1, "r")]

    def test_duplicates_below_frontier_ignored(self):
        t = SpanTracker()
        t.data_arrival(9, 0, 10, "r")
        t.data_arrival(9, 1, 20, "r")
        t.data_arrival(9, 0, 30, "r")      # dup of contiguous data
        assert t.spans == []
        t.data_arrival(9, 2, 40, "r")
        assert t.spans == []

    def test_first_arrival_anchors_frontier(self):
        # Head-of-flow losses before anything landed are unobservable:
        # the first arrival defines PSN contiguity from there on.
        t = SpanTracker()
        t.data_arrival(9, 5, 10, "r")
        t.data_arrival(9, 6, 20, "r")
        assert t.spans == []

    def test_pending_table_bound_resets(self):
        t = SpanTracker()
        spans_mod_bound = spans._MAX_PENDING
        t.data_arrival(9, 0, 0, "r")
        for i in range(spans_mod_bound + 1):
            t.data_arrival(9, i + 2, i, "r")   # never fills psn 1
        assert t.reorder_resets >= 1

    def test_flows_tracked_independently(self):
        t = SpanTracker()
        t.data_arrival(1, 0, 10, "r")
        t.data_arrival(2, 0, 10, "r")
        t.data_arrival(1, 2, 20, "r")
        t.data_arrival(2, 1, 25, "r")      # flow 2 stays contiguous
        t.data_arrival(1, 1, 50, "r")
        assert t.spans == [(20, 50, "reorder", 1, -1, "r")]


# -------------------------------------------------------------- breakdown
class TestFlowBreakdown:
    def test_empty_spans_is_all_host_time(self):
        b = flow_breakdown([], 1, 100, 600)
        assert b["host_ns"] == 500
        assert b["fct_ns"] == 500
        assert b["residual_ns"] == 0
        assert sum(b[c] for c in COMPONENTS) == b["fct_ns"]

    def test_partition_is_exact_and_prioritized(self):
        rows = [
            (0, 100, "serialization", 1, 1, "a"),
            (50, 200, "pause", -1, -1, "p"),   # pause wins the overlap
            (150, 300, "propagation", 1, 1, "l"),
        ]
        b = flow_breakdown(rows, 1, 0, 400)
        assert b["serialization_ns"] == 50      # [0,50)
        assert b["pause_stall_ns"] == 150       # [50,200)
        assert b["propagation_ns"] == 100       # [200,300)
        assert b["host_ns"] == 100              # [300,400)
        assert b["residual_ns"] == 0
        assert sum(b[c] for c in COMPONENTS) == b["fct_ns"] == 400

    def test_other_flows_spans_ignored(self):
        rows = [(0, 100, "queue", 2, 1, "a"),
                (0, 100, "pause", -1, -1, "p")]
        b = flow_breakdown(rows, 1, 0, 100)
        assert b["queue_ns"] == 0               # flow 2's wait, not ours
        assert b["pause_stall_ns"] == 100       # global pause applies

    def test_spans_clipped_to_flow_window(self):
        rows = [(0, 1_000, "propagation", 1, 1, "l")]
        b = flow_breakdown(rows, 1, 200, 700)
        assert b["propagation_ns"] == 500
        assert b["fct_ns"] == 500

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            flow_breakdown([], 1, 100, 50)

    def test_breakdown_rows_percentages(self):
        entry = {"flow_id": 7, "completed": True, "fct_ns": 1_000,
                 "residual_ns": 0, "queue_ns": 250, "serialization_ns": 750,
                 "propagation_ns": 0, "host_ns": 0, "retx_stall_ns": 0,
                 "pause_stall_ns": 0, "reorder_ns": 0}
        (row,) = breakdown_rows({"p0": [entry]})
        assert row["point"] == "p0"
        assert row["flow"] == 7
        assert row["queue%"] == pytest.approx(25.0)
        assert row["serialization%"] == pytest.approx(75.0)

    def test_breakdown_rows_flags_stalled_flows(self):
        entry = {"flow_id": 7, "completed": False, "fct_ns": 100,
                 "residual_ns": 0}
        (row,) = breakdown_rows({"p0": [entry]})
        assert row["flow"] == "7*"


# --------------------------------------------------------------- perfetto
class TestPerfetto:
    def _points(self):
        t = SpanTracker()
        t.add(1_000, 2_000, "queue", 1, 9, "leaf0.p0")
        t.add(2_000, 2_500, "serialization", 1, 9, "leaf0.p0")
        t.mark(2_600, "retx", 1, "rnic1", {})
        t.mark(2_700, "pfc", -1, "leaf0",
               {"action": "pause", "port": 2, "ingress_bytes": 9_000})
        t.add(0, 100, "pause", -1, -1, "nic0")
        return {"fig8/p0": t.to_payload()}

    def test_events_have_tracks_and_slices(self):
        events = perfetto_events(self._points())
        metas = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "fig8/p0" for e in metas)
        assert any(e["args"]["name"] == "flow 1" for e in metas)
        assert any(e["args"]["name"] == "(unattributed)" for e in metas)
        assert {e["name"] for e in slices} == {"queue", "serialization",
                                               "pause"}
        q = next(e for e in slices if e["name"] == "queue")
        assert q["ts"] == pytest.approx(1.0)    # ns -> us
        assert q["dur"] == pytest.approx(1.0)
        assert instants[0]["name"] == "retx" and instants[0]["s"] == "t"
        # A marker's detail rides in the instant's args.
        assert instants[0]["args"] == {"actor": "rnic1", "flow": 1}
        assert instants[1]["args"] == {"actor": "leaf0", "flow": -1,
                                       "action": "pause", "port": 2,
                                       "ingress_bytes": 9_000}

    def test_trace_validates_and_round_trips(self, tmp_path):
        trace_obj = perfetto_trace(self._points())
        assert validate_perfetto(trace_obj) == []
        buf = io.StringIO()
        n = write_perfetto(buf, self._points())
        assert n == len(trace_obj["traceEvents"])
        assert json.loads(buf.getvalue()) == trace_obj
        # byte-determinism
        buf2 = io.StringIO()
        write_perfetto(buf2, self._points())
        assert buf.getvalue() == buf2.getvalue()

    def test_written_bytes_equal_the_streaming_encoders(self, tmp_path):
        # write_perfetto encodes with json.dumps (the C encoder); the
        # file must stay what json.dump(trace, fh, ...) used to stream.
        old = io.StringIO()
        json.dump(perfetto_trace(self._points()), old, sort_keys=True,
                  separators=(",", ":"))
        old.write("\n")
        path = tmp_path / "run.json"
        with open(path, "w") as fh:
            write_perfetto(fh, self._points())
        assert path.read_text() == old.getvalue()
        assert validate_path(str(path)) == []

    def test_validator_rejects_malformed_events(self):
        assert validate_perfetto([]) == ["trace is not a JSON object"]
        assert validate_perfetto({}) == ["trace has no traceEvents list"]
        assert validate_perfetto({"traceEvents": []})
        bad_ph = {"traceEvents": [{"ph": "Q", "pid": 1, "tid": 1}]}
        assert any("unknown phase" in e for e in validate_perfetto(bad_ph))
        no_dur = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0}]}
        assert any("dur" in e for e in validate_perfetto(no_dur))
        neg_dur = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0,
                                    "dur": -1}]}
        assert any("dur" in e for e in validate_perfetto(neg_dur))

    def test_cli_summarize_and_validate(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        with open(path, "w") as fh:
            write_perfetto(fh, self._points())
        assert spans.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "slices" in out
        assert "2 markers" in out and "pfc" in out
        assert schema.main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert spans.main([]) == 2
        assert spans.main(["--validate", str(path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert schema.main([str(bad)]) == 1
        assert spans.main([str(tmp_path / "missing.json")]) == 1

    def test_validate_path_sniffs_perfetto_vs_jsonl(self, tmp_path):
        pf = tmp_path / "trace.json"
        with open(pf, "w") as fh:
            write_perfetto(fh, self._points())
        assert validate_path(str(pf)) == []
        jl = tmp_path / "records.jsonl"
        jl.write_text(json.dumps(
            {"type": "counter", "experiment": "e", "point": "p",
             "name": "engine.events", "value": 5}) + "\n")
        assert validate_path(str(jl)) == []


# -------------------------------------------------------- export + schema
class TestSpanRecords:
    def test_breakdown_records_validate_and_write(self):
        entry = flow_breakdown([(0, 60, "serialization", 3, 1, "a")],
                               3, 0, 100)
        entry.update(flow_id=3, completed=True)
        records = list(breakdown_records("fig8", {"p0": [entry]}))
        (r,) = records
        assert validate_record(r) == []
        assert r["components"]["serialization_ns"] == 60
        assert r["components"]["host_ns"] == 40
        buf = io.StringIO()
        assert write_breakdown_jsonl(buf, "fig8", {"p0": [entry]}) == 1

    def test_schema_rejects_bad_span_and_breakdown(self):
        inverted = {"traceEvents": [{"ph": "X", "name": "queue", "pid": 1,
                                     "tid": 1, "ts": 9, "dur": -4}]}
        assert any("dur" in e for e in validate_perfetto(inverted))
        bad_comp = {"type": "breakdown", "experiment": "e", "point": "p",
                    "flow": 1, "fct_ns": 10,
                    "components": {"warp_ns": 1}}
        assert any("unknown breakdown components" in e
                   for e in validate_record(bad_comp))
        negative = dict(bad_comp, components={"queue_ns": -5})
        assert any("negative" in e for e in validate_record(negative))

    def test_span_kinds_catalogs_agree(self):
        from repro.analysis.latency import KIND_TO_COMPONENT
        from repro.obs.schema import BREAKDOWN_COMPONENTS
        assert set(KIND_TO_COMPONENT) == set(SPAN_KINDS)
        assert BREAKDOWN_COMPONENTS == frozenset(COMPONENTS)
