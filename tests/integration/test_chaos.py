"""Chaos campaign: scenario wiring, exactly-once delivery, determinism.

Every transport must complete its flows *exactly once* across a
mid-flow link flap and a switch blackout (the §4.5 failure classes),
DCP's coarse-grained fallback timer must actually fire and be counted,
and the robustness sweep must be bit-identical across serial, parallel
and cache-replayed execution (scenarios ride the spec-hash cache key).
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.scenarios import SCENARIOS, apply_scenario
from repro.experiments import cli, robustness
from repro.experiments.presets import get_preset
from repro.experiments.registry import REGISTRY, run_experiment
from repro.runner.cache import CACHE_VERSION, ResultCache
from repro.runner.runner import ExperimentRunner, SweepPoint
from repro.runner.points import simulate_flows

QUICK = get_preset("quick")


def _point(transport: str, scenario_key: str) -> SweepPoint:
    """The robustness sweep's compiled quick point for one cell."""
    (point,) = [p for p in REGISTRY["robustness"].points(
                    QUICK, chaos=scenario_key)
                if p.spec.transport == transport]
    return point


def _run_point(transport: str, scenario_key: str, telemetry=None) -> dict:
    point = _point(transport, scenario_key)
    return simulate_flows(point.spec,
                          {**point.params, "telemetry": telemetry})


@pytest.mark.parametrize("transport", robustness.TRANSPORTS)
@pytest.mark.parametrize("scenario", ["link_flap", "switch_blackout"])
def test_exactly_once_delivery_across_failure(transport, scenario):
    """Flows complete and the app sees every byte exactly once."""
    payload = _run_point(transport, scenario)
    for rec in payload["flows"]:
        assert rec["completed"], (transport, scenario, rec)
        # rx_bytes counts bytes *delivered to the application*:
        # == size means no byte was lost and no duplicate slipped
        # through (duplicates are discarded and counted separately).
        assert rec["rx_bytes"] == rec["size_bytes"]
    chaos = payload["chaos"]
    assert chaos["scenario"] == scenario
    assert chaos["events"], "scenario should have injected something"
    assert chaos["recovered"], (transport, scenario, chaos["recovery"])
    assert chaos["recovery_ns"] > 0
    assert all(v >= 0 for v in chaos["downtime_ns"].values())


@pytest.mark.parametrize("scenario", ["link_flap", "switch_blackout"])
def test_dcp_coarse_timeout_fires_and_is_counted(scenario):
    """The §4.5 fallback timer is DCP's only way past a dead path; it
    must fire under both failure classes and be counted separately from
    regular RTOs."""
    payload = _run_point("dcp", scenario)
    chaos = payload["chaos"]
    assert chaos["coarse_timeouts"] >= 1
    counters = payload["metrics"]["counters"]
    coarse = sum(v for n, v in counters.items()
                 if n.startswith("rnic.") and n.endswith(".coarse_timeouts"))
    assert coarse == chaos["coarse_timeouts"]
    assert chaos["timeouts"] >= chaos["coarse_timeouts"]


def test_chaos_injection_counters_match_events():
    payload = _run_point("dcp", "link_flap")
    counters = payload["metrics"]["counters"]
    events = payload["chaos"]["events"]
    assert counters["chaos.injected"] == len(events)
    recovering = [e for e in events if e["recover_at_ns"] is not None]
    assert counters["chaos.recovered"] == len(recovering)


def test_baseline_scenario_reports_zero_recovery():
    payload = _run_point("dcp", "none")
    chaos = payload["chaos"]
    assert chaos["events"] == []
    assert chaos["recovery_ns"] == 0
    assert chaos["recovered"]
    assert chaos["retx_storm_pkts"] == 0


def test_scenario_library_applies_on_the_testbed():
    """Every library scenario resolves its targets on the robustness
    fabric (catches target-schema drift before a sweep does)."""
    from repro.experiments.common import Network

    for key in SCENARIOS:
        point = _point("dcp", key)
        net = Network(point.spec)
        injector = apply_scenario(net, point.params["chaos"])
        expected = len(SCENARIOS[key]["events"])
        if key in ("link_flap", "link_flap_converge", "double_flap"):
            # flap events expand to one FailureEvent per flap
            assert len(injector.events) >= expected
        else:
            assert len(injector.events) == expected


def test_robustness_serial_parallel_replay_identical(tmp_path):
    """serial == --jobs 2 == cache replay, bit for bit; replay executes
    nothing."""
    serial = ExperimentRunner(jobs=1, cache=ResultCache(enabled=False))
    r_serial = run_experiment("robustness", "quick", runner=serial,
                              chaos="link_flap")

    cache = ResultCache(root=tmp_path / "cache")
    par = ExperimentRunner(jobs=2, cache=cache)
    r_par = run_experiment("robustness", "quick", runner=par,
                           chaos="link_flap")
    assert par.simulations_executed == len(robustness.TRANSPORTS)

    replay = ExperimentRunner(jobs=2, cache=ResultCache(root=tmp_path / "cache"))
    r_replay = run_experiment("robustness", "quick", runner=replay,
                              chaos="link_flap")
    assert replay.simulations_executed == 0

    assert r_serial.rows == r_par.rows == r_replay.rows


def test_chaos_params_change_the_cache_key(tmp_path):
    """Two runs differing only in scenario must not share cache
    entries."""
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(jobs=1, cache=cache)
    r_flap = run_experiment("robustness", "quick", runner=runner,
                            chaos="link_flap")
    executed = runner.simulations_executed
    r_none = run_experiment("robustness", "quick", runner=runner,
                            chaos="none")
    assert runner.simulations_executed == 2 * executed  # all misses
    assert r_flap.rows != r_none.rows


# --------------------------------------------------- declared sampling scope
#: ``_run_point("dcp", "link_flap")`` as the all-gauges sampler reported
#: it before sampling scope was declared: narrowing what is *recorded*
#: must not move what is *simulated* or what recovery measures.
DCP_LINK_FLAP_EVENTS = 4202
DCP_LINK_FLAP_CHAOS = {
    "coarse_timeouts": 8,
    "downtime_ns": {"sw0->sw1": 120000, "sw1->sw0": 120000},
    "dup_pkts": 4,
    "events": [{"fail_at_ns": 50000, "kind": "link",
                "recover_at_ns": 170000, "target": "sw0.p2"}],
    "first_fail_at_ns": 50000,
    "recovered": True,
    "recovery": [
        {"completed": True, "flow": 0, "pre_goodput_gbps": 5.12,
         "recovered": True, "recovery_ns": 2160000, "stall_ns": 2160000},
        {"completed": True, "flow": 1, "pre_goodput_gbps": 3.2,
         "recovered": True, "recovery_ns": 1120000, "stall_ns": 1120000}],
    "recovery_ns": 2160000,
    "retx_storm_pkts": 32,
    "scenario": "link_flap",
    "timeouts": 8,
}


def test_chaos_point_samples_only_the_delivery_series():
    payload = _run_point("dcp", "link_flap")
    series = payload["metrics"]["series"]
    assert list(series) == ["chaos.flow.0.rx_bytes", "chaos.flow.1.rx_bytes"]
    assert all(len(s["times_ns"]) == len(s["values"]) == 468
               for s in series.values())
    assert payload["events"] == DCP_LINK_FLAP_EVENTS
    assert payload["chaos"] == DCP_LINK_FLAP_CHAOS
    # Every gauge still reports its final value; only the series narrowed.
    assert "switch.sw0.p2.data_bytes" in payload["metrics"]["gauges"]


def test_asking_for_sampling_records_every_gauge(tmp_path):
    asked = _run_point("dcp", "link_flap",
                       telemetry={"sample_interval_ns": 10_000})
    series = asked["metrics"]["series"]
    assert list(series) == list(asked["metrics"]["gauges"])
    assert len(series) == 35
    assert {"switch.sw0.p2.data_bytes", "switch.sw1.p0.busy_ns",
            "nic.nic0.tx_bytes", "engine.events",
            "chaos.flow.0.rx_bytes"} <= set(series)
    # Same cadence, so the same simulation and the same recovery numbers.
    assert asked["events"] == DCP_LINK_FLAP_EVENTS
    assert asked["chaos"] == DCP_LINK_FLAP_CHAOS
    assert series["chaos.flow.0.rx_bytes"] == _run_point(
        "dcp", "link_flap")["metrics"]["series"]["chaos.flow.0.rx_bytes"]

    # ... and a different computation as far as the cache is concerned.
    point = _point("dcp", "link_flap")
    cache = ResultCache(root=tmp_path / "cache")
    ExperimentRunner(jobs=1, cache=cache).run_points("scope", [point])
    sampled = ExperimentRunner(
        jobs=1, cache=cache, telemetry={"sample_interval_ns": 10_000})
    (payload,) = sampled.run_points("scope", [point])
    assert sampled.simulations_executed == 1        # miss by design
    assert len(cache) == 2
    assert len(payload["metrics"]["series"]) == 35


def test_missing_delivery_series_is_an_error_not_a_zero(monkeypatch):
    """With a declared watch set a renamed gauge must fail the run, not
    read as "recovered in 0 ns" on every row of the robustness table."""
    from repro.obs import sampler

    class DeafSampler(sampler.MetricsSampler):
        def __init__(self, sim, registry, interval_ns, gauges=None):
            super().__init__(sim, registry, interval_ns, gauges=[])

    monkeypatch.setattr(sampler, "MetricsSampler", DeafSampler)
    with pytest.raises(KeyError, match=r"chaos\.flow\.0\.rx_bytes"):
        _run_point("dcp", "link_flap")
    # The no-injection baseline has nothing to recover from and needs
    # no series.
    chaos = _run_point("dcp", "none")["chaos"]
    assert chaos["recovery_ns"] == 0 and chaos["recovered"]


def _cli_robustness(capsys, cache_dir, metrics_out, jobs):
    assert cli.main(["robustness", "--preset", "quick", "--jobs", str(jobs),
                     "--cache-dir", str(cache_dir),
                     "--metrics-out", str(metrics_out)]) == 0
    out = capsys.readouterr().out.splitlines()
    status = [line for line in out if line.startswith("[runner:")]
    table = [line for line in out if not line.startswith("[")]
    entries = {path.name: path.read_bytes()
               for path in sorted(cache_dir.rglob("*.json"))}
    return table, status[0], entries, metrics_out.read_bytes()


def test_robustness_bytes_identical_serial_parallel_replay(tmp_path, capsys):
    """Table, every cache payload and the exported JSONL agree byte for
    byte across serial, ``--jobs 2`` and cache replay, and the export
    carries exactly the delivery series."""
    serial = _cli_robustness(capsys, tmp_path / "s", tmp_path / "s.jsonl", 1)
    par = _cli_robustness(capsys, tmp_path / "p", tmp_path / "p.jsonl", 2)
    replay = _cli_robustness(capsys, tmp_path / "p", tmp_path / "r.jsonl", 2)
    points = len(robustness.SCENARIO_KEYS) * len(robustness.TRANSPORTS)
    assert f"{points} simulations executed" in serial[1]
    assert f"{points} simulations executed" in par[1]
    assert "[runner: 0 simulations executed" in replay[1]
    assert serial[0] == par[0] == replay[0]
    assert len(serial[2]) == points
    assert serial[2] == par[2] == replay[2]
    assert serial[3] == par[3] == replay[3]

    records = [json.loads(line) for line in serial[3].splitlines()]
    series = [r["name"] for r in records if r["type"] == "series"]
    assert len(series) == 2 * points
    assert set(series) == {"chaos.flow.0.rx_bytes", "chaos.flow.1.rx_bytes"}
    # The noise-free form of the performance claim: the all-gauges
    # sampler wrote 2 349 549 cache bytes and 2 938 956 JSONL bytes here.
    assert sum(len(blob) for blob in serial[2].values()) < 450_000
    assert len(serial[3]) < 900_000


def test_v7_cache_entry_is_a_counted_miss_and_rewritten_as_current(tmp_path):
    """A v7 entry holds the all-gauges series: replaying it would put
    them back into ``--metrics-out``."""
    point = _point("dcp", "link_flap")
    cache = ResultCache(root=tmp_path / "cache")
    ExperimentRunner(jobs=1, cache=cache).run_points("scope", [point])
    (path,) = (tmp_path / "cache").rglob("*.json")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    assert envelope["version"] == CACHE_VERSION == 14
    fresh = path.read_bytes()
    envelope["version"] = 7
    path.write_text(json.dumps(envelope), encoding="utf-8")

    cache = ResultCache(root=tmp_path / "cache")
    rerun = ExperimentRunner(jobs=1, cache=cache)
    rerun.run_points("scope", [point])
    assert rerun.simulations_executed == 1
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 1, 1)
    assert path.read_bytes() == fresh
