"""Integration tests for the span flight recorder across all transports.

Three contracts hold for every transport:

* **attribution** — for every registered transport at 0/1/5% forced
  loss, the per-flow FCT breakdown partitions the completion time:
  components non-negative, summing exactly to the FCT (residual 0,
  trivially inside the stated 1% bound), with every flow-attributed
  span nested inside the run;
* **non-interference** — recording spans changes nothing about the
  simulation itself: flow records and the event count are bit-identical
  with spans on or off;
* **determinism** — the breakdown block (and its formatted table) is
  bit-identical across serial, ``--jobs 2`` and cache-replay runs.

Besides them: switch queue wait without forced loss, RIFL hop delivery
and a chaos PFC storm leave the spans the breakdown needs, and every
marker kind carries its pinned detail.  Each is checked on a cell built
to produce it, not on a figure's export: one uncontended fig8 flow never
queues, trims or pauses, so its spans and markers would prove nothing.
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import COMPONENTS
from repro.chaos.scenarios import get_scenario
from repro.experiments.common import NetworkSpec
from repro.experiments.presets import PRESETS
from repro.experiments.registry import REGISTRY, run_experiment
from repro.experiments.spec import TRANSPORTS as TRANSPORT_PATHS
from repro.obs import spans as spans_mod
from repro.runner import (ExperimentRunner, ResultCache, SweepPoint,
                          canonical_json)
from repro.runner.points import simulate_flows

LOSS_RATES = (0.0, 0.01, 0.05)
TRANSPORTS = sorted(TRANSPORT_PATHS)
SPAN_TELEMETRY = {"spans": {"max_spans": 1_000_000}}

_FLOWS = [[0, 1, 40_000, 0], [1, 0, 20_000, 5_000]]


def _spec(transport: str, loss_rate: float) -> NetworkSpec:
    return NetworkSpec(transport=transport, topology="direct", num_hosts=2,
                       link_rate=10.0, loss_rate=loss_rate, seed=7)


def _run(transport: str, loss_rate: float, telemetry=None) -> dict:
    return simulate_flows(_spec(transport, loss_rate),
                          {"flows": _FLOWS, "telemetry": telemetry})


@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_breakdown_partitions_fct(transport: str, loss_rate: float) -> None:
    payload = _run(transport, loss_rate, telemetry=SPAN_TELEMETRY)
    assert all(rec["completed"] for rec in payload["flows"])
    assert payload["spans"]["dropped_spans"] == 0, (
        f"{transport}/loss={loss_rate}: span budget too small for "
        "the acceptance matrix")
    breakdown = payload["breakdown"]
    assert len(breakdown) == len(_FLOWS)
    for entry, rec in zip(breakdown, payload["flows"]):
        label = (f"{transport}/loss={loss_rate}: flow "
                 f"{entry['src']}->{entry['dst']}")
        assert entry["completed"], label
        assert entry["fct_ns"] == rec["fct_ns"], label
        for comp in COMPONENTS:
            assert entry[comp] >= 0, f"{label}: {comp} negative"
        total = sum(entry[comp] for comp in COMPONENTS)
        assert total == entry["fct_ns"], (
            f"{label}: components sum to {total}, FCT {entry['fct_ns']}")
        assert entry["residual_ns"] == 0, label
        # well inside the acceptance bound ("within 1% of FCT")
        assert abs(entry["fct_ns"] - total) <= 0.01 * entry["fct_ns"]


@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_spans_nest_inside_run(transport: str, loss_rate: float) -> None:
    payload = _run(transport, loss_rate, telemetry=SPAN_TELEMETRY)
    end_ns = payload["end_ns"]
    flow_starts = {rec["start_ns"] for rec in payload["flows"]}
    earliest = min(flow_starts)
    for start, end, kind, fid, _uid, _actor in payload["spans"]["spans"]:
        assert start <= end, f"{transport}: inverted {kind} span"
        assert end <= end_ns, f"{transport}: {kind} span outlives the run"
        if fid >= 0:
            assert start >= earliest, (
                f"{transport}: {kind} span predates every flow")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_loss_shows_up_as_stall_or_reorder_time(transport: str) -> None:
    """At 5% loss, recovery must leave a visible footprint: some flow
    attributes time to retx stalls, reorder holds, or at minimum the
    tracker saw a repair marker — an end-to-end retransmission or
    timeout, or a RIFL hop retransmission.  Drop markers do not count:
    they show the loss, not its recovery."""
    payload = _run(transport, 0.05, telemetry=SPAN_TELEMETRY)
    stall = sum(e["retx_stall_ns"] + e["reorder_ns"]
                for e in payload["breakdown"])
    repairs = [m for m in payload["spans"]["marks"]
               if m[1] in ("retx", "timeout", "rifl_retx")]
    assert stall > 0 or repairs, (
        f"{transport}: 5% loss left no stall time and no retx/timeout/"
        "rifl_retx markers")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_span_recording_does_not_perturb_simulation(transport: str) -> None:
    plain = _run(transport, 0.01)
    spanned = _run(transport, 0.01, telemetry=SPAN_TELEMETRY)
    assert plain["events"] == spanned["events"]
    assert plain["end_ns"] == spanned["end_ns"]
    assert canonical_json(plain["flows"]) == canonical_json(spanned["flows"])
    assert spans_mod.active() is None     # global restored


def test_switch_queue_wait_is_recorded_without_forced_loss() -> None:
    """A 6-to-1 incast spends ~1 ms queued at the last-hop switch, on a
    loss-free fabric as on one configured for (never-firing) forced
    loss: same simulation, same attribution, and the wait is booked to
    ``queue_ns`` rather than smeared over the other components."""
    def run(loss_rate: float) -> dict:
        spec = NetworkSpec(transport="irn", topology="clos", num_hosts=8,
                           num_leaves=2, num_spines=2, lb="ecmp", cc="none",
                           link_rate=10.0, loss_rate=loss_rate, seed=1)
        return simulate_flows(spec, {
            "flows": [[src, 7, 200_000, 0] for src in range(6)],
            "telemetry": {"spans": {"max_spans": 10_000_000}}})

    clean, lossy = run(0.0), run(1e-12)
    assert clean["spans"]["dropped_spans"] == 0
    assert clean["events"] == lossy["events"]
    assert canonical_json(clean["flows"]) == canonical_json(lossy["flows"])
    assert canonical_json(clean["breakdown"]) == canonical_json(
        lossy["breakdown"])
    for entry, rec in zip(clean["breakdown"], clean["flows"]):
        assert entry["fct_ns"] == rec["fct_ns"]
        assert entry["queue_ns"] > entry["fct_ns"] // 2, entry
        assert entry["residual_ns"] == 0
    queue_spans = sum(1 for span in clean["spans"]["spans"]
                      if span[2] == "queue")
    assert queue_spans == sum(1 for span in lossy["spans"]["spans"]
                              if span[2] == "queue") > 0


def test_rifl_hops_record_propagation() -> None:
    """RIFL forwards through its hop shim, not ``Link.deliver``; the
    shim records the same flight time, so at 0% loss RIFL books exactly
    GBN's propagation."""
    gbn = _run("gbn", 0.0, telemetry=SPAN_TELEMETRY)
    rifl = _run("rifl", 0.0, telemetry=SPAN_TELEMETRY)
    propagation = [e["propagation_ns"] for e in rifl["breakdown"]]
    assert propagation == [e["propagation_ns"] for e in gbn["breakdown"]]
    assert all(ns > 0 for ns in propagation)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pfc_storm_freeze_is_pause_time(transport: str) -> None:
    """The robustness ``pfc_storm`` point freezes the only inter-switch
    port for a window.  The frozen port records one pause span covering
    the window, which every flow books as ``pause_stall_ns``."""
    (point,) = [p for p in REGISTRY["robustness"].points(
                    PRESETS["quick"], chaos="pfc_storm")
                if p.spec.transport == transport]
    (event,) = point.params["chaos"]["events"]
    payload = simulate_flows(point.spec, {**point.params,
                                          "telemetry": SPAN_TELEMETRY})
    for entry in payload["breakdown"]:
        assert entry["completed"]
        assert entry["pause_stall_ns"] == event["duration_ns"]
        assert entry["residual_ns"] == 0
    (inject,) = [m for m in payload["spans"]["marks"]
                 if m[1] == "failure.inject"]
    pauses = [s for s in payload["spans"]["spans"] if s[2] == "pause"]
    at_ns = event["at_ns"]
    assert pauses == [[at_ns, at_ns + event["duration_ns"], "pause", -1, -1,
                       inject[3]]]


#: The detail keys each marker kind carries (a DCP timeout is its
#: coarse timer, which names the message and its retry count).
MARK_DETAIL = {
    "drop": {"psn", "reason"}, "trim": {"psn"},
    "ecn": {"psn", "queue_bytes"}, "ctrlq": {"psn"},
    "pfc": {"action", "port", "ingress_bytes"}, "ho": {"dir", "psn"},
    "rifl_hold": {"psn"}, "rifl_retx": {"psn"},
    "failure.inject": {"kind"}, "failure.recover": {"kind"},
    "retx": set(), "timeout": {"msn", "sretry"},
}

#: (marker kind, detail filter) -> the counters (prefix, field) whose
#: sum the marker count must equal.
MARK_COUNTERS = {
    ("drop", "link_down"): ("link", "dropped_link_down"),
    ("drop", "loss"): ("link", "dropped_loss"),
    ("drop", "forced"): ("switch", "dropped_forced"),
    ("drop", "congestion"): ("switch", "dropped_congestion"),
    ("trim", None): ("switch", "trimmed"),
    ("ecn", None): ("switch", "ecn_marked"),
    ("pfc", "pause"): ("pfc", "pause_frames"),
    ("pfc", "resume"): ("pfc", "resume_frames"),
    ("ho", "turn"): ("rnic", "ho_turned"),
    ("ho", "recv"): ("rnic", "ho_received"),
    ("rifl_hold", None): ("rifl", "held_link_down"),
    ("rifl_retx", None): ("rifl", "hop_retx"),
    ("failure.inject", None): ("chaos", "injected"),
    ("failure.recover", None): ("chaos", "recovered"),
    ("retx", None): ("rnic", "retx_pkts"),
    ("timeout", None): ("rnic", "timeouts"),
}


def _marker_runs() -> dict[str, dict]:
    """Three small runs that between them leave every marker kind: DCP
    with DCQCN over a lossy two-switch fabric whose cable flaps, RIFL
    through the same flap, and a GBN incast on a lossless fabric."""
    flap = get_scenario("link_flap")
    cross = dict(topology="testbed", num_hosts=4, cross_links=1, lb="ecmp",
                 link_rate=10.0, buffer_bytes=300_000, loss_rate=0.01,
                 seed=29)
    runs = {
        "dcp": (NetworkSpec(transport="dcp", cc="dcqcn", **cross,
                            transport_overrides={"coarse_timeout_ns":
                                                 400_000}),
                [[0, 2, 240_000, 0], [1, 3, 240_000, 0],
                 [0, 3, 240_000, 0], [1, 2, 240_000, 0]], flap),
        "rifl": (NetworkSpec(transport="rifl", **cross),
                 [[0, 2, 240_000, 0], [1, 3, 240_000, 10_000]], flap),
        "gbn_pfc": (NetworkSpec(transport="gbn", topology="clos",
                                num_hosts=8, num_leaves=2, num_spines=2,
                                lb="ecmp", link_rate=10.0,
                                buffer_bytes=300_000, seed=3),
                    [[src, 7, 60_000, 0] for src in range(6)], None),
    }
    return {name: simulate_flows(spec, {"flows": flows, "chaos": chaos,
                                        "telemetry": SPAN_TELEMETRY})
            for name, (spec, flows, chaos) in runs.items()}


def test_markers_pin_kind_and_detail() -> None:
    """Every kind in ``MARK_KINDS`` shows up, with exactly its detail
    keys, on its flow (or on no flow: PFC and failure markers), and as
    often as the counter that counts the same event."""
    seen = set()
    for name, payload in _marker_runs().items():
        assert payload["spans"]["dropped_spans"] == 0
        flow_ids = {e["flow_id"] for e in payload["breakdown"]}
        counters = payload["metrics"]["counters"]
        counts: dict[tuple, int] = {}
        for _t, kind, flow_id, actor, detail in payload["spans"]["marks"]:
            seen.add(kind)
            assert set(detail) == MARK_DETAIL[kind], (name, kind, detail)
            assert actor, (name, kind)
            if kind == "pfc" or kind.startswith("failure."):
                assert flow_id == -1, (name, kind)
            elif kind in ("drop", "rifl_hold"):
                # A down cable drops (or a RIFL hop holds) flowless
                # control frames too.
                assert flow_id in flow_ids | {-1}, (name, kind, flow_id)
            else:
                assert flow_id in flow_ids, (name, kind, flow_id)
            key = detail.get("reason") or detail.get("action") \
                or detail.get("dir")
            counts[kind, key] = counts.get((kind, key), 0) + 1
            if kind.startswith("failure."):
                assert detail["kind"] == "link"
        def total(prefix: str, field: str) -> int:
            return sum(v for n, v in counters.items()
                       if n.startswith(prefix + ".")
                       and n.endswith("." + field))

        # No counter counts HO departures; every trimmed packet the
        # switch did not then drop leaves its trimming switch once.
        assert counts.pop(("ctrlq", None), 0) >= (
            counts.get(("trim", None), 0) - total("switch", "ho_dropped"))
        assert set(counts) <= set(MARK_COUNTERS), (name, counts)
        for (kind, key), (prefix, field) in MARK_COUNTERS.items():
            assert counts.get((kind, key), 0) == total(prefix, field), (
                name, kind, key)
    assert seen == set(spans_mod.MARK_KINDS)


class TestBreakdownDeterminism:
    def _points(self) -> list[SweepPoint]:
        return [SweepPoint(f"{t}-1pct", _spec(t, 0.01), {"flows": _FLOWS})
                for t in ("gbn", "dcp", "sdr", "rifl")]

    def test_breakdown_identical_serial_jobs2_and_cache(self, tmp_path):
        points = self._points()
        serial = ExperimentRunner(jobs=1, telemetry=SPAN_TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "s"))
        parallel = ExperimentRunner(jobs=2, telemetry=SPAN_TELEMETRY,
                                    cache=ResultCache(root=tmp_path / "p"))
        pay_s = serial.run_points("bd", points)
        pay_p = parallel.run_points("bd", points)
        assert canonical_json(pay_s) == canonical_json(pay_p)
        for name in ("breakdown", "spans"):
            assert canonical_json([p[name] for p in pay_s]) == \
                canonical_json([p[name] for p in pay_p])

        replay = ExperimentRunner(jobs=2, telemetry=SPAN_TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "p"))
        pay_c = replay.run_points("bd", points)
        assert replay.simulations_executed == 0
        assert canonical_json(pay_c) == canonical_json(pay_s)
        assert canonical_json([p["breakdown"] for p in pay_c]) == \
            canonical_json([p["breakdown"] for p in pay_s])

    def test_fig8_breakdown_table_identical_across_modes(self, tmp_path):
        serial = ExperimentRunner(jobs=1, telemetry=SPAN_TELEMETRY,
                                  cache=ResultCache(root=tmp_path))
        res_s = run_experiment("fig8", preset="quick", runner=serial)
        assert res_s.breakdown, "sweep run must attach breakdown data"
        table_s = res_s.format_breakdown()
        assert "FCT breakdown" in table_s

        parallel = ExperimentRunner(jobs=2, telemetry=SPAN_TELEMETRY,
                                    cache=ResultCache(root=tmp_path))
        res_p = run_experiment("fig8", preset="quick", runner=parallel)
        assert parallel.simulations_executed == 0      # replayed from cache
        assert res_p.format_breakdown() == table_s
        assert canonical_json(res_p.breakdown) == canonical_json(
            res_s.breakdown)

    def test_span_telemetry_changes_cache_key(self, tmp_path):
        points = self._points()[:1]
        plain = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        plain.run_points("bd", points)
        assert plain.simulations_executed == 1
        spanned = ExperimentRunner(jobs=1, telemetry=SPAN_TELEMETRY,
                                   cache=ResultCache(root=tmp_path))
        (payload,) = spanned.run_points("bd", points)
        assert spanned.simulations_executed == 1       # miss by design
        assert payload["breakdown"]
