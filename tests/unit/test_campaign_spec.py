"""Campaign spec validation: strictness and pointed error paths."""

import pytest

from repro.campaigns import CampaignError, validate_campaign


def base_spec(**overrides):
    spec = {
        "name": "t",
        "workload": [{"kind": "flows", "flows": [[0, 1, 1000, 0]]}],
        "groups": [{"name": "transport", "axis": "spec.transport",
                    "values": ["gbn", "dcp"]}],
    }
    spec.update(overrides)
    return spec


def err(spec) -> CampaignError:
    with pytest.raises(CampaignError) as exc:
        validate_campaign(spec)
    return exc.value


class TestTopLevel:
    def test_valid_spec_passes(self):
        validate_campaign(base_spec())
        validate_campaign(base_spec(groups=[
            {"name": "scheme", "axes": ["spec.transport", "spec.lb"],
             "values": [["gbn", "ecmp"], ["dcp", "ar"]]}]))

    def test_not_a_dict(self):
        assert "must be a dict" in str(err([1, 2]))

    def test_unknown_field_is_pointed_at(self):
        e = err(base_spec(typo_field=1))
        assert e.path == "typo_field"
        assert "unknown campaign field" in e.message

    def test_missing_name(self):
        spec = base_spec()
        del spec["name"]
        assert err(spec).path == "name"

    def test_bad_seed(self):
        assert err(base_spec(seed="abc")).path == "seed"

    def test_bad_title_type(self):
        assert err(base_spec(title=3)).path == "title"

    def test_unknown_topology_field(self):
        e = err(base_spec(topology={"num_hosst": 4}))
        assert e.path == "topology.num_hosst"

    def test_normalization_returns_copy(self):
        spec = base_spec()
        out = validate_campaign(spec)
        assert out is not spec
        assert out["workload"][0]["name"] == "flows"   # default filled
        assert "name" not in spec["workload"][0]       # input untouched


class TestWorkload:
    def test_empty_workload(self):
        e = err(base_spec(workload=[]))
        assert e.path == "workload"
        assert "non-empty" in e.message

    def test_unknown_kind(self):
        e = err(base_spec(workload=[{"kind": "nope"}]))
        assert e.path == "workload[0].kind"

    def test_unknown_layer_field(self):
        e = err(base_spec(workload=[
            {"kind": "flows", "flows": [[0, 1, 10, 0]], "burst": 3}]))
        assert e.path == "workload[0].burst"

    def test_missing_required_field(self):
        e = err(base_spec(workload=[{"kind": "poisson"}]))
        assert e.path == "workload[0].load"
        assert "required" in e.message

    def test_load_out_of_range(self):
        e = err(base_spec(workload=[{"kind": "poisson", "load": 1.5}]))
        assert e.path == "workload[0].load"

    def test_self_flow_rejected(self):
        e = err(base_spec(workload=[
            {"kind": "flows", "flows": [[1, 1, 10, 0]]}]))
        assert e.path == "workload[0].flows"

    def test_fixed_dist_needs_size(self):
        e = err(base_spec(workload=[
            {"kind": "poisson", "load": 0.2, "size_dist": "fixed"}]))
        assert e.path == "workload[0].size_bytes"

    def test_duplicate_layer_names(self):
        e = err(base_spec(workload=[
            {"kind": "flows", "name": "a", "flows": [[0, 1, 10, 0]]},
            {"kind": "flows", "name": "a", "flows": [[1, 0, 10, 0]]}]))
        assert e.path == "workload[1].name"
        assert "duplicate" in e.message

    def test_bursting_requires_period(self):
        e = err(base_spec(workload=[
            {"kind": "bursting", "burst_bytes": 1000, "bursts": 2}]))
        assert e.path == "workload[0].period_ns"


class TestGroups:
    def test_empty_groups(self):
        e = err(base_spec(groups=[]))
        assert e.path == "groups"

    def test_empty_values(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.transport", "values": []}]))
        assert e.path == "groups[0].values"

    def test_duplicate_values(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.transport",
             "values": ["dcp", "dcp"]}]))
        assert "distinct" in e.message

    def test_duplicate_group_names(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.transport", "values": ["dcp"]},
            {"name": "g", "axis": "spec.cc", "values": ["none"]}]))
        assert e.path == "groups[1].name"

    def test_duplicate_axes(self):
        e = err(base_spec(groups=[
            {"name": "a", "axis": "spec.transport", "values": ["dcp"]},
            {"name": "b", "axis": "spec.transport", "values": ["gbn"]}]))
        assert e.path == "groups[1].axis"

    @pytest.mark.parametrize("groups,path,words", [
        ([{"name": "g", "axes": "spec.transport", "values": [["dcp"]]}],
         "groups[0].axes", ">= 2 axes"),
        ([{"name": "g", "axes": ["spec.transport"], "values": [["dcp"]]}],
         "groups[0].axes", ">= 2 axes"),
        ([{"name": "g", "axis": "spec.cc", "axes": ["spec.transport",
                                                    "spec.lb"],
           "values": [["dcp", "ar"]]}],
         "groups[0].axes", "not both"),
        ([{"name": "g", "axes": ["spec.transport", "spec.lb"],
           "values": [["dcp", "ar"], ["gbn"]]}],
         "groups[0].values[1]", "one per axis"),
        ([{"name": "g", "axes": ["spec.transport", "sim.max_events"],
           "values": [["dcp", 10], ["gbn", 0]]}],
         "groups[0].values[1][1]", "positive integer"),
        ([{"name": "a", "axis": "spec.lb", "values": ["ar"]},
          {"name": "b", "axes": ["spec.transport", "spec.lb"],
           "values": [["dcp", "ar"]]}],
         "groups[1].axes[1]", "duplicate axis"),
    ], ids=["axes-not-list", "one-axis", "axis-and-axes", "value-length",
            "bad-column-value", "duplicate-axis"])
    def test_zipped_group_rejected(self, groups, path, words):
        e = err(base_spec(groups=groups))
        assert e.path == path
        assert words in e.message

    def test_unknown_group_field(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.transport", "values": ["dcp"],
             "extra": 1}]))
        assert e.path == "groups[0].extra"

    def test_unknown_axis_root(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "nope.transport", "values": ["dcp"]}]))
        assert e.path == "groups[0].axis"

    def test_unknown_spec_field(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.bogus", "values": [1]}]))
        assert e.path == "groups[0].axis"

    def test_dict_spec_field_rejected(self):
        # A dict-typed field takes its to_dict form (a dict), not pairs.
        e = err(base_spec(groups=[
            {"name": "g", "axis": "spec.transport_overrides",
             "values": [{}, [["rto_ns", 400_000]]], "labels": ["a", "b"]}]))
        assert e.path == "groups[0].values[1]"
        assert "NetworkSpec.from_dict refuses" in e.message

    def test_workload_axis_unknown_layer(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "workload.nope.load", "values": [0.1]}]))
        assert "no workload layer named" in e.message

    def test_workload_axis_value_checked(self):
        e = err(base_spec(
            workload=[{"kind": "poisson", "name": "bg", "load": 0.2}],
            groups=[{"name": "g", "axis": "workload.bg.load",
                     "values": [0.1, 2.0]}]))
        assert e.path == "groups[0].values[1]"

    def test_sim_axis_value_checked(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "sim.max_events", "values": [0]}]))
        assert e.path == "groups[0].values[0]"

    def test_chaos_axis_without_chaos_block(self):
        e = err(base_spec(groups=[
            {"name": "g", "axis": "chaos.loss_rate", "values": [0.1]}]))
        assert "needs a top-level chaos block" in e.message


class TestChaos:
    def test_unknown_scenario(self):
        e = err(base_spec(chaos={"scenario": "meteor_strike"}))
        assert e.path == "chaos.scenario"

    def test_missing_scenario(self):
        e = err(base_spec(chaos={"loss_rate": 0.1}))
        assert e.path == "chaos.scenario"

    def test_unknown_override(self):
        e = err(base_spec(chaos={"scenario": "loss_burst", "bogus": 1}))
        assert e.path == "chaos.bogus"

    def test_override_for_wrong_scenario(self):
        e = err(base_spec(chaos={"scenario": "pfc_storm",
                                 "loss_rate": 0.5}))
        assert e.path == "chaos.loss_rate"

    def test_malformed_flap_schedule(self):
        e = err(base_spec(chaos={"scenario": "link_flap", "flaps": 3}))
        assert e.path == "chaos.period_ns"
        assert "period_ns" in e.message

    @pytest.mark.parametrize("flaps", [None, 0, 1.5])
    def test_flaps_must_be_a_positive_integer(self, flaps):
        e = err(base_spec(chaos={"scenario": "link_flap", "flaps": flaps}))
        assert e.path == "chaos.flaps"

    def test_loss_rate_range(self):
        e = err(base_spec(chaos={"scenario": "loss_burst",
                                 "loss_rate": 1.5}))
        assert e.path == "chaos.loss_rate"

    def test_none_takes_no_overrides(self):
        e = err(base_spec(chaos={"scenario": "none", "loss_rate": 0.1}))
        assert "takes no overrides" in e.message

    def test_scenario_axis_values_checked(self):
        e = err(base_spec(
            chaos={"scenario": "loss_burst"},
            groups=[{"name": "g", "axis": "chaos.scenario",
                     "values": ["loss_burst", "bogus"]}]))
        assert e.path == "groups[0].values[1]"

    def test_valid_chaos_campaign(self):
        validate_campaign(base_spec(
            chaos={"scenario": "loss_burst", "loss_rate": 0.2},
            groups=[{"name": "loss", "axis": "chaos.loss_rate",
                     "values": [0.1, 0.3]}]))


class TestMetrics:
    def test_unknown_metric(self):
        e = err(base_spec(metrics=["goodput_gbps", "nonsense"]))
        assert e.path == "metrics[1]"

    def test_empty_metrics(self):
        assert err(base_spec(metrics=[])).path == "metrics"

    def test_unknown_sim_field(self):
        assert err(base_spec(sim={"warmup": 1})).path == "sim.warmup"
