"""Unit tests for the parallel experiment runner and its result cache.

Covers the three contracts of :mod:`repro.runner`: canonical spec
hashing (stable cache keys), on-disk JSON caching (re-runs execute zero
simulations), and deterministic merging (serial and ``jobs=4`` runs are
bit-identical).
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.experiments.common import NetworkSpec
from repro.experiments.presets import get_preset
from repro.experiments.registry import REGISTRY
from repro.experiments.result import ExperimentResult
from repro.runner.cache import CACHE_VERSION, ResultCache
from repro.runner.runner import ExperimentRunner, SweepPoint, serial_runner
from repro.runner.spec_hash import cache_key, canonical_json, canonicalize


def _points(n: int = 4, seed0: int = 11) -> list[SweepPoint]:
    """Cheap but non-trivial direct-topology points (distinct seeds)."""
    return [
        SweepPoint(
            f"p{i}",
            NetworkSpec(transport="dcp", topology="direct", num_hosts=2,
                        link_rate=10.0, loss_rate=0.02, seed=seed0 + i),
            {"flows": [[0, 1, 60_000, 0], [1, 0, 20_000, 5_000]]})
        for i in range(n)
    ]


def _result_json(result: ExperimentResult) -> str:
    """Everything a result carries, in its canonical JSON form."""
    return canonical_json([result.rows, result.metrics, result.breakdown,
                           result.spans])


def _blocks(payloads: list, name: str) -> str:
    """Every payload's ``name`` block, in sweep-point order."""
    return canonical_json([payload[name] for payload in payloads])


# --------------------------------------------------------- spec hashing
class TestSpecHashing:
    def test_canonicalize_normalizes_tuples_and_key_order(self):
        a = canonicalize({"b": (1, 2), "a": {"y": 1, "x": (3,)}})
        assert a == {"b": [1, 2], "a": {"y": 1, "x": [3]}}
        assert (canonical_json({"a": 1, "b": 2})
                == canonical_json({"b": 2, "a": 1}))

    def test_canonicalize_rejects_non_json_values(self):
        with pytest.raises(TypeError):
            canonicalize(object())
        with pytest.raises(TypeError):
            canonicalize({"fn": lambda: None})

    def test_cache_key_stable_and_sensitive(self):
        spec = NetworkSpec(transport="irn", seed=3)
        key = cache_key("fig99", "pt", spec, {"flows": [[0, 1, 10, 0]]})
        assert key == cache_key("fig99", "pt", spec,
                                {"flows": [[0, 1, 10, 0]]})
        # every input participates in the key
        assert key != cache_key("fig98", "pt", spec, {"flows": [[0, 1, 10, 0]]})
        assert key != cache_key("fig99", "pt2", spec, {"flows": [[0, 1, 10, 0]]})
        assert key != cache_key("fig99", "pt", NetworkSpec(transport="irn", seed=4),
                                {"flows": [[0, 1, 10, 0]]})
        assert key != cache_key("fig99", "pt", spec, {"flows": [[0, 1, 11, 0]]})

    def test_cache_key_is_filesystem_safe(self):
        spec = NetworkSpec()
        key = cache_key("fig 1/7", "a:b*c", spec)
        assert all(c.isalnum() or c in "-_." for c in key)

    # The canonical form is the on-disk cache's address: a change that
    # moves these bytes without moving CACHE_VERSION orphans every
    # stored entry.  The literals were computed at CACHE_VERSION 14.
    def test_cache_keys_are_pinned(self):
        assert cache_key("fig99", "pt", NetworkSpec()) == (
            "fig99.pt-9c1ffdd65e330b30819cdedd14e1e5cb"
            "68a2ebbf3f84ae7ee0892c06ba6646ff")
        spec = NetworkSpec(transport="rack_tlp", topology="testbed",
                           cross_port_rates={3: 2.5, 0: 10.0},
                           transport_overrides={"rto_ns": 5_000_000}, seed=9)
        assert cache_key("fig99", "pt", spec, {"flows": [[0, 1, 10, 0]]}) == (
            "fig99.pt-d38595449fc1fa818caa1814508cb34d"
            "0ed05ea0e00d607ba3e00383c415c73d")

    def test_robustness_quick_keys_are_pinned(self):
        points = REGISTRY["robustness"].points(get_preset("quick"))
        keys = [cache_key("robustness", p.point_id, p.spec, p.params)
                for p in points]
        assert len(keys) == 45
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "43a3290ef99be9434aa75c168e869c1de49bfb58273fbfd7a5820a45a11e0de9")

    def test_spec_round_trips_through_dict(self):
        spec = NetworkSpec(transport="rack_tlp", topology="testbed",
                           cross_port_rates={3: 2.5, 0: 10.0},
                           transport_overrides={"rto_ns": 5_000_000},
                           window_bytes=123_456, loss_rate=0.01, seed=9)
        clone = NetworkSpec.from_dict(spec.to_dict())
        assert clone == spec
        # and the dict itself survives a JSON round trip
        assert NetworkSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_spec_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            NetworkSpec.from_dict({"transport": "dcp", "warp_factor": 9})


# ---------------------------------------------------------------- cache
class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"rows": [1, 2, 3]})
        assert cache.get("k" * 64) == {"rows": [1, 2, 3]}
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0,
                                 "stores": 1, "evictions": 0}
        assert len(cache) == 1

    def test_put_writes_the_pinned_canonical_bytes(self, tmp_path):
        # The on-disk format any faster encoder must reproduce byte for
        # byte: sorted keys, compact separators, repr floats, null.
        payload = {"z": {"b": 1.5, "a": {"deep": [1, 2.25, None]}},
                   "flows": [[0, 1, 60_000, 0], [1, 0, 1e-9, 5_000]],
                   "none": None, "ratio": 0.1, "big": 1e22, "ok": True}
        cache = ResultCache(root=tmp_path)
        cache.put("pinned", payload)
        assert cache._path("pinned").read_text(encoding="utf-8") == json.dumps(
            {"version": CACHE_VERSION, "key": "pinned", "payload": payload},
            sort_keys=True, separators=(",", ":"))
        assert cache._path("pinned").read_bytes() == (
            b'{"key":"pinned","payload":{"big":1e+22,"flows":[[0,1,60000,0],'
            b'[1,0,1e-09,5000]],"none":null,"ok":true,"ratio":0.1,'
            b'"z":{"a":{"deep":[1,2.25,null]},"b":1.5}},"version":%d}'
            % CACHE_VERSION)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("badentry", {"x": 1})
        path = cache._path("badentry")
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("badentry") is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("versioned", {"x": 1})
        path = cache._path("versioned")
        envelope = json.loads(path.read_text(encoding="utf-8"))
        assert envelope["version"] == CACHE_VERSION
        envelope["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get("versioned") is None

    # An entry that is there but unusable is a miss *and* counted as
    # corrupt; an absent one is only a miss.  Either way the next put
    # rewrites it.
    def _assert_corrupt_then_rewritten(self, cache, key):
        assert cache.get("absent") is None
        assert cache.stats()["corrupt"] == 0
        assert cache.get(key) is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 2, 1)
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}
        assert cache.stats()["corrupt"] == 1

    def test_truncated_entry_is_counted_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("torn", {"x": 1})
        path = cache._path("torn")
        path.write_bytes(path.read_bytes()[:-7])
        self._assert_corrupt_then_rewritten(cache, "torn")

    def test_non_utf8_entry_is_counted_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("garbage", {"x": 1})
        cache._path("garbage").write_bytes(b"\xff\xfe\x00garbage\x80")
        self._assert_corrupt_then_rewritten(cache, "garbage")

    def test_wrong_version_entry_is_counted_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache._path("old").parent.mkdir(parents=True)
        cache._path("old").write_text(json.dumps(
            {"version": CACHE_VERSION - 1, "key": "old", "payload": {"x": 1}}),
            encoding="utf-8")
        self._assert_corrupt_then_rewritten(cache, "old")

    def test_wrong_key_entry_is_counted_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache._path("mine").parent.mkdir(parents=True)
        cache._path("mine").write_text(json.dumps(
            {"version": CACHE_VERSION, "key": "theirs", "payload": {"x": 1}}),
            encoding="utf-8")
        self._assert_corrupt_then_rewritten(cache, "mine")

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        cache.put("key", {"x": 1})
        assert cache.get("key") is None
        assert len(cache) == 0

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(5):
            cache.put(f"key{i}", {"i": i})
        assert len(cache) == 5
        assert cache.clear() == 5
        assert len(cache) == 0
        assert cache.get("key0") is None

    def test_clear_sweeps_stale_tmp_files(self, tmp_path):
        # A worker killed between mkstemp and os.replace leaves a .tmp
        # behind; clear() must remove it so the shard rmdir succeeds
        # (regression: stale temps accumulated forever and kept every
        # subsequent clear() from pruning the directory).
        cache = ResultCache(root=tmp_path)
        cache.put("deadbeef", {"x": 1})
        shard = cache._path("deadbeef").parent
        (shard / "orphan001.tmp").write_text("{", encoding="utf-8")
        assert cache.clear() == 1      # temps are not counted as entries
        assert not shard.exists()      # stale temp gone -> rmdir worked
        assert len(cache) == 0

    def test_clear_is_idempotent_after_stale_tmp_sweep(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("cafef00d", {"x": 1})
        (cache._path("cafef00d").parent / "x.tmp").write_text("")
        cache.clear()
        assert cache.clear() == 0


class TestCacheEviction:
    """Size-bounded mode (``--cache-max-mb``): oldest-mtime-first."""

    # ~120 B per entry after the envelope; 0.0004 MB = 400 B budget
    # holds about three of them.
    PAYLOAD = {"blob": "x" * 64}

    def _bounded(self, tmp_path, max_mb=0.0004):
        return ResultCache(root=tmp_path, max_mb=max_mb)

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(root=tmp_path, max_mb=0)
        with pytest.raises(ValueError):
            ResultCache(root=tmp_path, max_mb=-1.5)

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for i in range(50):
            cache.put(f"key{i:02d}", self.PAYLOAD)
        assert len(cache) == 50
        assert cache.evictions == 0

    def test_evicts_oldest_entries_first(self, tmp_path):
        cache = self._bounded(tmp_path)
        for i in range(10):
            cache.put(f"key{i:02d}", self.PAYLOAD)
            # Distinct mtimes make the eviction order deterministic.
            path = cache._path(f"key{i:02d}")
            ns = path.stat().st_mtime_ns
            os.utime(path, ns=(ns + i * 1_000_000, ns + i * 1_000_000))
        assert cache.evictions > 0
        assert 0 < len(cache) < 10
        # Survivors are a suffix of the insertion order: newest kept.
        alive = sorted(p.stem for p in tmp_path.glob("*/*.json"))
        assert alive == [f"key{i:02d}" for i in
                         range(10 - len(alive), 10)]

    def test_freshly_written_entry_is_never_the_victim(self, tmp_path):
        # Budget smaller than a single entry: the new entry survives
        # anyway (a cache that evicts what it just stored is useless).
        cache = ResultCache(root=tmp_path, max_mb=0.00001)
        cache.put("first000", self.PAYLOAD)
        cache.put("second00", self.PAYLOAD)
        assert cache.get("second00") == self.PAYLOAD
        assert cache.get("first000") is None

    def test_evicted_entry_reads_as_miss_and_restores(self, tmp_path):
        cache = self._bounded(tmp_path)
        for i in range(10):
            cache.put(f"key{i:02d}", self.PAYLOAD)
        victim = next(f"key{i:02d}" for i in range(10)
                      if cache.get(f"key{i:02d}") is None)
        cache.put(victim, self.PAYLOAD)       # re-store after the miss
        assert cache.get(victim) == self.PAYLOAD

    def test_size_estimate_survives_clear(self, tmp_path):
        cache = self._bounded(tmp_path)
        for i in range(10):
            cache.put(f"key{i:02d}", self.PAYLOAD)
        cache.clear()
        for i in range(10):
            cache.put(f"new{i:03d}", self.PAYLOAD)
        # Post-clear stores still respect the budget (the stale running
        # estimate was dropped with the entries).
        assert 0 < len(cache) < 10

    def test_rewriting_a_key_counts_only_its_size_change(self, tmp_path,
                                                         monkeypatch):
        # A healed corrupt entry or a second writer rewrites a key whose
        # file the running estimate already holds.
        evictions = []
        monkeypatch.setattr(ResultCache, "_evict",
                            lambda self, keep: evictions.append(keep))
        cache = ResultCache(root=tmp_path, max_mb=0.05)
        cache.put("other000", {"blob": "y" * 9_000})
        for i in range(6):
            cache.put("cafef00d", {"blob": "x" * (9_000 + i)})
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("*/*.json"))
        assert cache._approx_bytes == on_disk
        assert on_disk < cache.max_bytes
        assert evictions == []


# --------------------------------------------------------------- runner
class TestExperimentRunner:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_serial_runner_executes_without_cache(self):
        runner = serial_runner()
        payloads = runner.run_points("unit", _points(2))
        assert runner.simulations_executed == 2
        assert all(rec["completed"] and rec["rx_bytes"] == rec["size_bytes"]
                   for p in payloads for rec in p["flows"])

    def test_second_run_is_served_entirely_from_cache(self, tmp_path):
        points = _points(3)
        first = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        payloads1 = first.run_points("unit", points)
        assert first.simulations_executed == 3

        second = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        payloads2 = second.run_points("unit", points)
        assert second.simulations_executed == 0          # zero sims re-run
        assert second.cache.hits == 3
        assert payloads1 == payloads2

    def test_spec_change_invalidates_only_that_point(self, tmp_path):
        points = _points(3)
        runner = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        runner.run_points("unit", points)

        changed = list(points)
        changed[1] = SweepPoint(points[1].point_id,
                                NetworkSpec(transport="irn", topology="direct",
                                            num_hosts=2, link_rate=10.0,
                                            loss_rate=0.02, seed=12),
                                points[1].params)
        rerun = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        rerun.run_points("unit", changed)
        assert rerun.simulations_executed == 1
        assert rerun.cache.hits == 2


# --------------------------------------------------- determinism (issue)
class TestDeterminism:
    def test_serial_and_parallel_payloads_are_bit_identical(self, tmp_path):
        """Same NetworkSpec + seed: serial == --jobs 4, byte for byte."""
        points = _points(6)
        serial = ExperimentRunner(jobs=1,
                                  cache=ResultCache(root=tmp_path / "s"))
        parallel = ExperimentRunner(jobs=4,
                                    cache=ResultCache(root=tmp_path / "p"))
        payloads_s = serial.run_points("det", points)
        payloads_p = parallel.run_points("det", points)
        assert serial.simulations_executed == 6
        assert parallel.simulations_executed == 6
        assert canonical_json(payloads_s) == canonical_json(payloads_p)

    def test_parallel_rerun_hits_serial_cache(self, tmp_path):
        """Cache entries are interchangeable between serial and parallel."""
        points = _points(4)
        serial = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        payloads_s = serial.run_points("det", points)

        parallel = ExperimentRunner(jobs=4, cache=ResultCache(root=tmp_path))
        payloads_p = parallel.run_points("det", points)
        assert parallel.simulations_executed == 0        # all from cache
        assert payloads_s == payloads_p

    def test_fig8_serial_vs_parallel_results_identical(self, tmp_path):
        """End to end through a registry experiment at quick scale."""
        from repro.experiments.registry import run_experiment
        res_s = run_experiment("fig8", preset="quick", runner=serial_runner())
        runner_p = ExperimentRunner(jobs=4,
                                    cache=ResultCache(root=tmp_path))
        res_p = run_experiment("fig8", preset="quick", runner=runner_p)
        assert _result_json(res_s) == _result_json(res_p)
        # immediate re-run: the whole figure comes from cache
        rerun = ExperimentRunner(jobs=4, cache=ResultCache(root=tmp_path))
        res_c = run_experiment("fig8", preset="quick", runner=rerun)
        assert rerun.simulations_executed == 0
        assert _result_json(res_c) == _result_json(res_s)


# ------------------------------------------------- telemetry determinism
TELEMETRY = {"spans": {"max_spans": 50_000},
             "sample_interval_ns": 20_000}


class TestTelemetryDeterminism:
    def test_metrics_payload_identical_serial_parallel_and_cached(
            self, tmp_path):
        """Same spec -> byte-identical metrics under serial, --jobs 2,
        and cache replay (the ISSUE's telemetry round-trip contract)."""
        points = _points(4)
        serial = ExperimentRunner(jobs=1, telemetry=TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "s"))
        parallel = ExperimentRunner(jobs=2, telemetry=TELEMETRY,
                                    cache=ResultCache(root=tmp_path / "p"))
        pay_s = serial.run_points("tel", points)
        pay_p = parallel.run_points("tel", points)
        assert canonical_json(pay_s) == canonical_json(pay_p)
        for name in ("metrics", "spans"):
            assert _blocks(pay_s, name) == _blocks(pay_p, name)

        replay = ExperimentRunner(jobs=2, telemetry=TELEMETRY,
                                  cache=ResultCache(root=tmp_path / "p"))
        pay_c = replay.run_points("tel", points)
        assert replay.simulations_executed == 0
        assert canonical_json(pay_c) == canonical_json(pay_s)
        for name in ("metrics", "spans"):
            assert _blocks(pay_c, name) == _blocks(pay_s, name)

    def test_points_carry_metrics_and_requested_traces(self):
        runner = ExperimentRunner(jobs=1, telemetry=TELEMETRY,
                                  cache=ResultCache(enabled=False))
        payloads = runner.run_points("tel", _points(2))
        for p in payloads:
            assert p["metrics"]["counters"]    # instrumented fleet counted
            assert "spans" in p
        # loss_rate=0.02 points must record drops somewhere
        assert any(mark[1] == "drop"
                   for p in payloads
                   for mark in p["spans"]["marks"])

    @pytest.mark.parametrize("telemetry", [
        {"trace": {"max_records": 10}},
        {"spans": {}, "sample_interval": 10_000},
    ])
    def test_unknown_telemetry_key_is_rejected(self, telemetry):
        """A retired or misspelt ``telemetry`` key fails, naming the
        key, instead of silently recording nothing."""
        runner = ExperimentRunner(jobs=1, telemetry=telemetry,
                                  cache=ResultCache(enabled=False))
        (bad,) = set(telemetry) - {"spans"}
        with pytest.raises(ValueError, match=f"unknown telemetry key '{bad}'"):
            runner.run_points("tel", _points(1))

    def test_telemetry_changes_cache_key(self, tmp_path):
        """A traced/sampled run is a different computation: it must not
        serve from (or poison) the untraced cache entries."""
        points = _points(2)
        plain = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        plain.run_points("tel", points)
        assert plain.simulations_executed == 2

        traced = ExperimentRunner(jobs=1, telemetry=TELEMETRY,
                                  cache=ResultCache(root=tmp_path))
        traced.run_points("tel", points)
        assert traced.simulations_executed == 2   # cache miss by design

        plain2 = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        plain2.run_points("tel", points)
        assert plain2.simulations_executed == 0   # untraced entries intact

    def test_metrics_survive_result_round_trip(self, tmp_path):
        """Metrics attached by run_experiment come back unchanged when
        the whole figure replays from the cache."""
        from repro.experiments.registry import run_experiment
        runner = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        result = run_experiment("fig8", preset="quick", runner=runner)
        assert result.metrics                    # attached by run_experiment
        replayer = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path))
        replay = run_experiment("fig8", preset="quick", runner=replayer)
        assert replayer.simulations_executed == 0
        assert canonical_json(replay.metrics) == canonical_json(result.metrics)

    def test_run_experiment_attaches_each_points_spans(self, tmp_path):
        """A span-recording run hands back ``result.spans``: point id ->
        that point's payload ``spans`` block, in sweep-point order, read
        off the payloads rather than any runner state."""
        from repro.experiments.registry import run_experiment
        runner = ExperimentRunner(jobs=1, cache=ResultCache(root=tmp_path),
                                  telemetry={"spans": {"max_spans": 50_000}})
        result = run_experiment("fig8", preset="quick", runner=runner)
        points = REGISTRY["fig8"].points(get_preset("quick"))
        payloads = runner.run_points("fig8", points)    # served from cache
        assert runner.simulations_executed == len(points)
        assert list(result.spans) == [p.point_id for p in points]
        for point, payload in zip(points, payloads):
            assert result.spans[point.point_id] == payload["spans"]


# ------------------------------------------------------ registry wiring
class TestRegistryIntegration:
    @pytest.mark.parametrize("key", list(REGISTRY))
    def test_every_experiment_declares_a_sweep(self, key):
        """One path from spec to table: every key exports merge, a
        simulated key a campaign spec (an analytic one none), and every
        point's spec and params canonicalize (so it hashes into a cache
        key)."""
        entry = REGISTRY[key]
        mod = entry.load_module()
        points = entry.points(get_preset("quick"))
        assert callable(mod.merge)
        assert hasattr(mod, "campaign") == bool(points) == entry.simulation
        assert len({p.point_id for p in points}) == len(points)
        for point in points:
            assert isinstance(point.spec, NetworkSpec)
            assert canonicalize(point.spec.to_dict()) == point.spec.to_dict()
            canonicalize(point.params)
            cache_key(key, point.point_id, point.spec, point.params)

    @pytest.mark.parametrize("preset", ["quick", "default", "full"])
    @pytest.mark.parametrize("key", list(REGISTRY))
    def test_no_sweep_simulates_the_same_point_twice(self, key, preset):
        """Two points with one spec and one params dict would simulate
        the same thing twice; the merge should reuse one payload."""
        points = REGISTRY[key].points(get_preset(preset))
        seen = {}
        for point in points:
            what = canonical_json([point.spec.to_dict(), point.params])
            assert what not in seen, (point.point_id, seen.get(what))
            seen[what] = point.point_id

    def test_sweep_points_shapes(self):
        from repro.experiments import fig17_loss_schemes as fig17
        pts = REGISTRY["fig17"].points(get_preset("quick"))
        assert len(fig17.SCHEMES) == 9                    # full registry
        assert len(pts) == 7 * 9                          # loss x scheme grid
        assert len({p.point_id for p in pts}) == len(pts)

    def test_result_payload_round_trip(self):
        """Rows merged from JSON payloads hold lists where a live merge
        held tuples; the formatted table is the same."""
        rows = [{"a": 1, "span": (2, 3)}, {"a": 2, "span": (4, 5)}]
        result = ExperimentResult("unit", "t", rows=rows)
        clone = ExperimentResult("unit", "t", rows=canonicalize(rows))
        assert clone.rows[0]["span"] == [2, 3]
        assert clone.format_table() == result.format_table()
