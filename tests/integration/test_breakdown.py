"""Integration tests for the span flight recorder across all transports.

Three contracts from the flight-recorder issue:

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
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import COMPONENTS
from repro.experiments.common import NetworkSpec, _transport_registry
from repro.experiments.registry import run_experiment
from repro.obs import spans as spans_mod
from repro.runner import (ExperimentRunner, ResultCache, SweepPoint,
                          canonical_json)
from repro.runner.points import simulate_flows

LOSS_RATES = (0.0, 0.01, 0.05)
TRANSPORTS = sorted(_transport_registry())
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
    tracker saw retransmission markers (hop-level repair for RIFL)."""
    payload = _run(transport, 0.05, telemetry=SPAN_TELEMETRY)
    stall = sum(e["retx_stall_ns"] + e["reorder_ns"]
                for e in payload["breakdown"])
    marks = payload["spans"]["marks"]
    if transport == "rifl":
        # Link-layer repair: no transport-visible stalls required.
        return
    assert stall > 0 or marks, (
        f"{transport}: 5% loss left no stall time and no retx/timeout "
        "markers")


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


class TestBreakdownDeterminism:
    POINT_RUNNER = "repro.runner.points.simulate_flows"

    def _points(self) -> list[SweepPoint]:
        return [SweepPoint(f"{t}-1pct", _spec(t, 0.01), {"flows": _FLOWS})
                for t in ("gbn", "dcp", "sdr", "rifl")]

    def test_breakdown_identical_serial_jobs2_and_cache(self, tmp_path):
        points = self._points()
        serial = ExperimentRunner(jobs=1, telemetry=SPAN_TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "s"))
        parallel = ExperimentRunner(jobs=2, telemetry=SPAN_TELEMETRY,
                                    cache=ResultCache(root=tmp_path / "p"))
        pay_s = serial.run_points("bd", points, self.POINT_RUNNER)
        pay_p = parallel.run_points("bd", points, self.POINT_RUNNER)
        assert canonical_json(pay_s) == canonical_json(pay_p)
        assert canonical_json(serial.last_breakdowns) == canonical_json(
            parallel.last_breakdowns)
        assert canonical_json(serial.last_spans) == canonical_json(
            parallel.last_spans)

        replay = ExperimentRunner(jobs=2, telemetry=SPAN_TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "p"))
        pay_c = replay.run_points("bd", points, self.POINT_RUNNER)
        assert replay.simulations_executed == 0
        assert canonical_json(pay_c) == canonical_json(pay_s)
        assert canonical_json(replay.last_breakdowns) == canonical_json(
            serial.last_breakdowns)

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
        # the breakdown block survives the result payload round trip
        from repro.experiments.result import ExperimentResult
        clone = ExperimentResult.from_payload(res_s.to_payload())
        assert clone.format_breakdown() == table_s

    def test_span_telemetry_changes_cache_key(self, tmp_path):
        points = self._points()[:1]
        plain = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        plain.run_points("bd", points, self.POINT_RUNNER)
        assert plain.simulations_executed == 1
        spanned = ExperimentRunner(jobs=1, telemetry=SPAN_TELEMETRY,
                                   cache=ResultCache(root=tmp_path))
        spanned.run_points("bd", points, self.POINT_RUNNER)
        assert spanned.simulations_executed == 1       # miss by design
        assert spanned.last_breakdowns
