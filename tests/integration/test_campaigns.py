"""End-to-end campaign runs: bit-identity and CLI integration."""

import json

import pytest

import repro.experiments.cli as cli
from repro.campaigns.compiler import compile_campaign, run_campaign
from repro.obs.schema import validate_file
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner
from repro.runner.spec_hash import canonical_json

TINY = {
    "name": "tiny-int",
    "title": "integration tiny",
    "topology": {"topology": "direct", "num_hosts": 2},
    "workload": [
        {"kind": "flows", "name": "pair",
         "flows": [[0, 1, 40_000, 0], [1, 0, 20_000, 5_000]]},
    ],
    "groups": [
        {"name": "transport", "axis": "spec.transport",
         "values": ["gbn", "irn", "dcp"]},
    ],
    "sim": {"max_events": 2_000_000},
}


class TestBitIdentity:
    def test_serial_parallel_replay_identical(self, tmp_path):
        serial_cache = tmp_path / "serial"
        serial = run_campaign(TINY, "quick", ExperimentRunner(
            jobs=1, cache=ResultCache(root=serial_cache)))
        parallel = run_campaign(TINY, "quick", ExperimentRunner(
            jobs=2, cache=ResultCache(root=tmp_path / "par")))
        replayer = ExperimentRunner(jobs=1,
                                    cache=ResultCache(root=serial_cache))
        replay = run_campaign(TINY, "quick", replayer)
        assert replayer.simulations_executed == 0   # pure cache replay
        s, p, r = (canonical_json([res.rows, res.metrics, res.breakdown])
                   for res in (serial, parallel, replay))
        assert s == p == r
        assert serial.format_table() == parallel.format_table() \
            == replay.format_table()

    def test_metrics_attached_without_any_export_flag(self):
        result = run_campaign(TINY, "quick")
        assert result.metrics
        assert set(result.metrics) == {p.point_id for p in
                                       compile_campaign(TINY, "quick").points}


class TestCli:
    def write_spec(self, tmp_path, spec=TINY):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        return path

    def test_campaign_from_spec_file(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        metrics_path = tmp_path / "m.jsonl"
        rc = cli.main(["campaign", str(spec_path), "--preset", "quick",
                       "--no-cache", "--metrics-out", str(metrics_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign-tiny-int" in out
        assert "transport" in out
        assert validate_file(str(metrics_path)) == []
        records = [json.loads(line)
                   for line in metrics_path.read_text().splitlines()]
        headers = [r for r in records if r["type"] == "campaign"]
        assert len(headers) == 1
        assert headers[0]["name"] == "tiny-int"
        assert headers[0]["groups"] == [
            {"name": "transport", "axis": "spec.transport"}]
        assert len(headers[0]["points"]) == 3

    def test_campaign_list_subcommand(self, capsys):
        assert cli.main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "incast_backpressure" in out
        assert "link_integrity_soak" in out

    def test_bad_campaign_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "groups": []}))
        with pytest.raises(SystemExit):
            cli.main(["campaign", str(bad)])
        assert "groups" in capsys.readouterr().err

    def test_unknown_campaign_name(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["campaign", "no_such_campaign"])
        assert "no_such_campaign" in capsys.readouterr().err

    def test_stray_target_on_non_campaign(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig13", "extra"])


class TestLibraryEndToEnd:
    def test_multi_tenant_mix_single_point_runs(self):
        # One point of a library campaign with a stochastic layer mix:
        # compile, shrink to the first point, run, and check both layers
        # contributed flows.
        from repro.campaigns.library import get_campaign
        spec = get_campaign("multi_tenant_mix")
        spec["groups"] = [{"name": "transport", "axis": "spec.transport",
                           "values": ["dcp"]}]
        spec["workload"][0]["max_flows"] = 10
        spec["sim"] = {"max_events": 4_000_000}
        result = run_campaign(spec, "quick")
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["flows"] == 10 + 8 * 7   # poisson cap + 8-host mesh


#: TINY with an out-of-range load: every path that takes a spec from
#: outside rejects it at the same JSON path.
BAD_LOAD = {**TINY, "workload": [{"kind": "poisson", "name": "bg",
                                  "load": 1.5}]}


class TestStrictPaths:
    def test_load_campaign_rejects_an_invalid_file(self, tmp_path):
        from repro.campaigns.compiler import CampaignError
        from repro.campaigns.library import load_campaign
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_LOAD))
        with pytest.raises(CampaignError) as exc:
            load_campaign(path)
        assert exc.value.path == "workload[0].load"

    @pytest.mark.parametrize("as_file", [False, True])
    def test_run_campaign_rejects_an_invalid_spec(self, tmp_path, as_file):
        from repro.campaigns.compiler import CampaignError
        source = BAD_LOAD
        if as_file:
            source = tmp_path / "bad.json"
            source.write_text(json.dumps(BAD_LOAD))
        with pytest.raises(CampaignError) as exc:
            run_campaign(source, "quick")
        assert exc.value.path == "workload[0].load"

    def test_cli_campaign_rejects_an_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_LOAD))
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", str(path), "--no-cache"])
        assert exc.value.code == 2
        assert "workload[0].load: expected a load" in capsys.readouterr().err

    def test_a_custom_preset_compiles_a_key_strictly(self):
        # At a named preset fig10's spec is program data and is lowered
        # as is; a custom preset is outside input, so a zero-byte flow
        # it would lay out is refused before any point exists.
        from repro.campaigns.compiler import CampaignError
        from repro.experiments.presets import get_preset
        from repro.experiments.registry import run_experiment
        custom = get_preset("quick")._replace(long_flow_bytes=0)
        with pytest.raises(CampaignError) as exc:
            run_experiment("fig10", preset=custom)
        assert exc.value.path == "workload[0].flows"
