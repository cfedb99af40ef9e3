"""Campaign compilation: grid shapes, preset defaults, chaos, merge, and
the figures that declare their sweeps as campaign specs."""

import ast
import hashlib
from pathlib import Path

import pytest

import repro

from repro.campaigns.compiler import (CampaignError, DEFAULT_METRICS,
                                      compile_campaign, merge_campaign)
from repro.campaigns.library import campaign_names, get_campaign
from repro.campaigns.spec import validate_campaign
from repro.chaos.scenarios import RECOVERY_TIMERS, SCENARIOS, get_scenario
from repro.experiments.presets import get_preset
from repro.experiments.registry import REGISTRY, get_entry
from repro.experiments.spec import CHOICES
from repro.runner.spec_hash import cache_key, canonical_json
from repro.workload.flows import IncastWorkload, PoissonWorkload


def tiny_spec(**overrides):
    spec = {
        "name": "tiny",
        "topology": {"topology": "direct", "num_hosts": 2},
        "workload": [{"kind": "flows", "name": "pair",
                      "flows": [[0, 1, 5000, 0]]}],
        "groups": [{"name": "transport", "axis": "spec.transport",
                    "values": ["gbn", "dcp"]}],
    }
    spec.update(overrides)
    return spec


class TestGrid:
    def test_point_count_is_grid_product(self):
        c = compile_campaign(tiny_spec(groups=[
            {"name": "transport", "axis": "spec.transport",
             "values": ["gbn", "dcp"]},
            {"name": "mtu", "axis": "spec.mtu_payload",
             "values": [500, 1000, 2000]},
        ]), "quick")
        assert len(c.points) == 6
        # first group is the outer loop
        assert [p.point_id for p in c.points[:3]] == [
            "transport-gbn.mtu-500", "transport-gbn.mtu-1000",
            "transport-gbn.mtu-2000"]
        # a zipped group is one loop whose axes move in lockstep
        c = compile_campaign(tiny_spec(groups=[
            {"name": "mtu", "axis": "spec.mtu_payload",
             "values": [500, 1000]},
            {"name": "scheme", "axes": ["spec.transport", "spec.lb"],
             "values": [["gbn", "ecmp"], ["dcp", "ar"], ["irn", "ar"]]},
        ]), "quick")
        assert [p.point_id for p in c.points[:3]] == [
            "mtu-500.scheme-gbn-ecmp", "mtu-500.scheme-dcp-ar",
            "mtu-500.scheme-irn-ar"]
        assert len(c.points) == 6
        assert [(p.spec.transport, p.spec.lb) for p in c.points[:3]] == [
            ("gbn", "ecmp"), ("dcp", "ar"), ("irn", "ar")]
        assert c.assignments[1] == {"mtu": 500, "scheme": ["dcp", "ar"]}

    def test_assignments_follow_points(self):
        c = compile_campaign(tiny_spec(), "quick")
        assert c.assignments == ({"transport": "gbn"}, {"transport": "dcp"})
        assert [p.spec.transport for p in c.points] == ["gbn", "dcp"]

    def test_key_and_metrics_defaults(self):
        c = compile_campaign(tiny_spec(), "quick")
        assert c.key == "campaign-tiny"
        assert c.metrics == DEFAULT_METRICS

    def test_preset_fills_topology(self):
        spec = tiny_spec(topology={"topology": "clos"})
        quick = compile_campaign(spec, "quick").points[0].spec
        full = compile_campaign(spec, "full").points[0].spec
        assert quick.num_hosts == get_preset("quick").num_hosts
        assert full.num_hosts == get_preset("full").num_hosts
        assert quick.num_hosts != full.num_hosts

    def test_campaign_topology_beats_preset(self):
        c = compile_campaign(tiny_spec(), "full")
        assert c.points[0].spec.num_hosts == 2

    def test_campaign_seed_reaches_network_spec(self):
        c = compile_campaign(tiny_spec(seed=77), "quick")
        assert all(p.spec.seed == 77 for p in c.points)

    def test_sim_axis_reaches_params(self):
        c = compile_campaign(tiny_spec(groups=[
            {"name": "ev", "axis": "sim.max_events",
             "values": [1000, 2000]}]), "quick")
        assert [p.params["max_events"] for p in c.points] == [1000, 2000]


class TestLabelsAndDictAxes:
    RATES = [[[0, 10.0], [1, 10.0]], [[0, 10.0], [1, 2.5]]]

    def rates_spec(self, **group):
        return tiny_spec(
            topology={"topology": "testbed", "num_hosts": 4,
                      "cross_links": 2},
            workload=[{"kind": "flows", "name": "pair",
                       "flows": [[0, 2, 5000, 0]]}],
            groups=[{"name": "ratio", "axis": "spec.cross_port_rates",
                     "values": self.RATES, "labels": ["1to1", "1to4"],
                     **group}])

    def test_labels_name_the_values_in_point_ids(self):
        c = compile_campaign(tiny_spec(groups=[
            {"name": "probe", "axes": ["spec.window_bytes",
                                       "workload.pair.flows"],
             "values": [[None, [[0, 1, 64, 0]]],
                        [200_000, [[0, 1, 50_000, 0]]]],
             "labels": ["lat", "tput"]},
            {"name": "transport", "axis": "spec.transport",
             "values": ["gbn", "dcp"], "labels": ["cx5", "dcp"]},
        ]), "quick")
        assert [p.point_id for p in c.points] == [
            "probe-lat.transport-cx5", "probe-lat.transport-dcp",
            "probe-tput.transport-cx5", "probe-tput.transport-dcp"]
        assert [p.params["flows"][0][2] for p in c.points] == [
            64, 64, 50_000, 50_000]
        assert c.assignments[3] == {
            "probe": [200_000, [[0, 1, 50_000, 0]]], "transport": "dcp"}

    def test_an_axis_supplies_a_required_layer_field(self):
        # The layer names no flows: the group sets them at every point.
        c = compile_campaign(tiny_spec(
            workload=[{"kind": "flows", "name": "pair"}],
            groups=[{"name": "size", "axis": "workload.pair.flows",
                     "values": [[[0, 1, 64, 0]], [[0, 1, 5000, 0]]],
                     "labels": ["small", "big"]}]), "quick")
        assert [p.params["flows"] for p in c.points] == [
            [[0, 1, 64, 0, "pair"]], [[0, 1, 5000, 0, "pair"]]]

    def test_a_required_field_no_axis_sets_is_missing(self):
        with pytest.raises(CampaignError) as exc:
            compile_campaign(tiny_spec(
                workload=[{"kind": "flows", "name": "pair"}]), "quick")
        assert exc.value.path == "workload[0].flows"
        assert "required" in exc.value.message

    def test_a_non_scalar_value_needs_labels(self):
        spec = self.rates_spec()
        del spec["groups"][0]["labels"]
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert exc.value.path == "groups[0].labels"
        assert "not a scalar" in exc.value.message

    @pytest.mark.parametrize("labels", [["1to1"], ["a", "a"], ["a", "b c"]])
    def test_missing_duplicate_or_malformed_labels(self, labels):
        with pytest.raises(CampaignError) as exc:
            compile_campaign(self.rates_spec(labels=labels), "quick")
        assert exc.value.path == "groups[0].labels"

    def test_cross_port_rates_axis(self):
        c = compile_campaign(self.rates_spec(), "quick")
        assert [p.point_id for p in c.points] == ["ratio-1to1", "ratio-1to4"]
        assert [p.spec.cross_port_rates for p in c.points] == [
            {0: 10.0, 1: 10.0}, {0: 10.0, 1: 2.5}]
        assert [p.spec.to_dict()["cross_port_rates"]
                for p in c.points] == self.RATES

    @pytest.mark.parametrize("bad", [
        [[0, 10.0], [1]],            # a pair missing its rate
        [[0, "fast"]],               # a rate that is not a number
        {0: 10.0},                   # the dict, not its pair list
        [[1, 2.5], [0, 10.0]],       # pairs out of to_dict's order
    ])
    def test_malformed_pair_list_names_the_value(self, bad):
        with pytest.raises(CampaignError) as exc:
            compile_campaign(self.rates_spec(values=[self.RATES[0], bad]),
                             "quick")
        assert exc.value.path == "groups[0].values[1]"
        assert "NetworkSpec.from_dict refuses" in exc.value.message

    def test_transport_overrides_axis(self):
        c = compile_campaign(tiny_spec(groups=[
            {"name": "timers", "axis": "spec.transport_overrides",
             "values": [{}, {"rto_ns": 400_000}], "labels": ["dflt", "rto"]},
        ]), "quick")
        assert [p.spec.transport_overrides for p in c.points] == [
            {}, {"rto_ns": 400_000}]


class TestCrossChecks:
    def test_unknown_transport_value(self):
        spec = tiny_spec(groups=[
            {"name": "t", "axis": "spec.transport", "values": ["warp"]}])
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert "unknown transport" in str(exc.value)

    def test_flow_host_out_of_range(self):
        spec = tiny_spec(workload=[
            {"kind": "flows", "flows": [[0, 5, 1000, 0]]}])
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert "out of range" in str(exc.value)

    def test_incast_fan_in_too_large(self):
        spec = tiny_spec(workload=[
            {"kind": "incast", "load": 0.1, "fan_in": 8}])
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert "fan_in" in str(exc.value)

    def test_collective_group_size_must_divide_hosts(self):
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "flows", "flows": [[0, 1, 100, 0]]},
                      {"kind": "collective", "collective": "alltoall",
                       "hosts": [0, 1, 2, 3, 4, 5], "group_size": 4}])
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert exc.value.path == "workload[1].group_size"
        # The default host list is the whole fabric (16 hosts at quick).
        del spec["workload"][1]["hosts"]
        spec["workload"][1]["group_size"] = 3
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert exc.value.path == "workload[1].group_size"
        assert "does not divide 16 hosts" in str(exc.value)

    def test_chaos_override_must_fit_swept_scenario(self):
        # The scenario axis swaps in pfc_storm, which has no loss_rate.
        spec = tiny_spec(
            topology={"topology": "testbed", "num_hosts": 4,
                      "cross_links": 1},
            chaos={"scenario": "loss_burst", "loss_rate": 0.2},
            groups=[{"name": "s", "axis": "chaos.scenario",
                     "values": ["pfc_storm"]}])
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert "does not apply" in str(exc.value)


class TestChaosCompilation:
    def chaos_spec(self, **chaos):
        return tiny_spec(
            topology={"topology": "testbed", "num_hosts": 4,
                      "cross_links": 1},
            workload=[{"kind": "flows",
                       "flows": [[0, 2, 5000, 0]]}],
            chaos={"scenario": "loss_burst", **chaos})

    def test_chaos_reaches_params(self):
        c = compile_campaign(self.chaos_spec(loss_rate=0.25), "quick")
        for p in c.points:
            assert p.params["chaos"]["name"] == "loss_burst"
            assert p.params["chaos"]["events"][0]["loss_rate"] == 0.25

    def test_scenario_none_is_the_empty_scenario(self):
        # ``none`` means what ``--chaos none`` runs: nothing injected,
        # but the point still samples delivery and reports a chaos block.
        spec = self.chaos_spec()
        spec["groups"] = [{"name": "s", "axis": "chaos.scenario",
                           "values": ["loss_burst", "none"]}]
        c = compile_campaign(spec, "quick")
        assert c.points[0].params["chaos"]["name"] == "loss_burst"
        assert c.points[1].params["chaos"] == SCENARIOS["none"]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_cli_scenario_has_a_spec_form(self, scenario):
        spec = self.chaos_spec()
        spec["groups"] = [{"name": "s", "axis": "chaos.scenario",
                           "values": [scenario]}]
        (point,) = compile_campaign(spec, "quick").points
        assert point.params["chaos"] == get_scenario(scenario)

    def test_chaos_hashes_into_cache_key(self):
        base = compile_campaign(self.chaos_spec(loss_rate=0.2), "quick")
        varied = compile_campaign(self.chaos_spec(loss_rate=0.4), "quick")
        for a, b in zip(base.points, varied.points):
            assert a.point_id == b.point_id
            assert (cache_key(base.key, a.point_id, a.spec, a.params)
                    != cache_key(varied.key, b.point_id, b.spec, b.params))


class TestLayerLayout:
    def test_bursting_is_synchronized(self):
        spec = tiny_spec(
            topology={"topology": "clos", "num_hosts": 4, "num_leaves": 2,
                      "num_spines": 2},
            workload=[{"kind": "bursting", "burst_bytes": 1000,
                       "period_ns": 100, "bursts": 2}])
        flows = compile_campaign(spec, "quick").points[0].params["flows"]
        assert len(flows) == 8          # 4 hosts x 2 bursts
        starts = sorted({f[3] for f in flows})
        assert starts == [0, 100]       # all senders share each burst time
        assert all(f[0] != f[1] and f[2] == 1000 for f in flows)

    def test_alltoall_covers_all_pairs(self):
        spec = tiny_spec(
            topology={"topology": "clos", "num_hosts": 4, "num_leaves": 2,
                      "num_spines": 2},
            workload=[{"kind": "collective", "collective": "alltoall",
                       "total_bytes": 24_000, "start_ns": 50}])
        flows = compile_campaign(spec, "quick").points[0].params["flows"]
        assert len(flows) == 12         # 4*3 ordered pairs
        assert {(f[0], f[1]) for f in flows} == {
            (a, b) for a in range(4) for b in range(4) if a != b}
        # Each rank's share of the total goes to every peer.
        assert all(f[2] == 24_000 // 4 and f[3] == 50 for f in flows)
        assert {f[4] for f in flows} == {"collective.g0"}

    def test_collective_chains_point_at_their_own_rows(self):
        # A ring after a Poisson layer: every step's ``after`` names the
        # earlier step of its own ring that delivered into its sender.
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "poisson", "name": "bg", "load": 0.2,
                       "seed": 3, "max_flows": 5},
                      {"kind": "collective", "name": "ring",
                       "collective": "allreduce", "hosts": [0, 1, 2, 3],
                       "total_bytes": 40_000}])
        flows = compile_campaign(spec, "quick").points[0].params["flows"]
        first = sum(1 for f in flows if f[4] == "bg")
        ring = flows[first:]
        assert first == 5 and len(ring) == 4 * 2 * 3
        chained = [f for f in ring if len(f) == 6]
        assert len(chained) == 4 * 5
        for src, _dst, _size, _start, tag, after in chained:
            step = int(tag.rsplit(".s", 1)[1])
            assert after >= first
            assert flows[after][1] == src
            assert flows[after][4] == f"ring.g0.s{step - 1}"

    def test_collective_groups_slice_hosts_in_order(self):
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "collective", "name": "c",
                       "collective": "alltoall", "group_size": 2,
                       "hosts": [0, 5, 2, 7], "total_bytes": 1_000}])
        flows = compile_campaign(spec, "quick").points[0].params["flows"]
        assert [(f[0], f[1], f[2], f[4]) for f in flows] == [
            (0, 5, 500, "c.g0"), (5, 0, 500, "c.g0"),
            (2, 7, 500, "c.g1"), (7, 2, 500, "c.g1")]

    def test_collective_kind_is_an_axis(self):
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "collective", "name": "c",
                       "collective": "allreduce", "hosts": [0, 1, 2, 3]}],
            groups=[{"name": "coll", "axis": "workload.c.collective",
                     "values": ["allreduce", "alltoall"]}])
        ring, mesh = compile_campaign(spec, "quick").points
        assert len(ring.params["flows"]) == 4 * 2 * 3
        assert len(mesh.params["flows"]) == 4 * 3
        assert ring.point_id == "coll-allreduce"
        spec["groups"][0]["values"] = ["allreduce", "scatter"]
        with pytest.raises(CampaignError) as exc:
            compile_campaign(spec, "quick")
        assert exc.value.path == "groups[0].values[1]"

    def test_layers_post_in_order(self):
        spec = tiny_spec(workload=[
            {"kind": "flows", "name": "a", "flows": [[0, 1, 100, 0]]},
            {"kind": "flows", "name": "b", "flows": [[1, 0, 200, 0]]}])
        flows = compile_campaign(spec, "quick").points[0].params["flows"]
        assert [f[2] for f in flows] == [100, 200]
        assert [f[4] for f in flows] == ["a", "b"]     # layer-name tags

    def test_poisson_layer_matches_workload_schedule(self):
        # The compiled layout must equal what PoissonWorkload.schedule
        # itself produces for the derived layer seed.
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "poisson", "name": "bg", "load": 0.2,
                       "seed": 123, "max_flows": 20}])
        c = compile_campaign(spec, "quick")
        preset = get_preset("quick")
        from repro.workload.distributions import websearch
        wl = PoissonWorkload(load=0.2, size_dist=websearch(preset.ws_scale),
                             duration_ns=preset.duration_ns, seed=123,
                             max_flows=20)
        expected = [[*f, "bg"] for f in wl.schedule(preset.num_hosts,
                                                    preset.link_rate)]
        assert c.points[0].params["flows"] == expected

    def test_incast_layer_matches_workload_schedule(self):
        spec = tiny_spec(
            topology={"topology": "clos"},
            workload=[{"kind": "incast", "name": "in", "load": 0.1,
                       "fan_in": 4, "seed": 9}])
        c = compile_campaign(spec, "quick")
        preset = get_preset("quick")
        wl = IncastWorkload(load=0.1, fan_in=4,
                            flow_bytes=preset.incast_flow_bytes,
                            duration_ns=preset.duration_ns, seed=9)
        expected = [[*f, "in"] for f in wl.schedule(preset.num_hosts,
                                                    preset.link_rate)]
        assert c.points[0].params["flows"] == expected


class TestMerge:
    def payload(self, n_flows=1, fct_ns=10_000):
        return {"flows": [{"src": 0, "dst": 1, "size_bytes": 1000,
                           "start_ns": 0, "completed": True,
                           "fct_ns": fct_ns, "goodput_gbps": 2.0,
                           "rx_bytes": 1000, "retx_pkts": 1, "timeouts": 0,
                           "dup_pkts_received": 0}] * n_flows,
                "events": 50, "end_ns": 20_000, "metrics": {}}

    def test_merge_rows_carry_assignments_and_metrics(self):
        c = compile_campaign(tiny_spec(), "quick")
        result = merge_campaign(c, [self.payload(), self.payload()])
        assert len(result.rows) == 2
        row = result.rows[0]
        assert row["transport"] == "gbn"
        assert row["flows"] == 1
        assert row["completed"] == "1/1"
        assert row["retx"] == 1

    def test_merge_length_mismatch(self):
        c = compile_campaign(tiny_spec(), "quick")
        with pytest.raises(ValueError):
            merge_campaign(c, [self.payload()])


class TestLibrary:
    def test_every_library_campaign_compiles_everywhere(self):
        for name in campaign_names():
            for preset in ("quick", "default"):
                c = compile_campaign(get_campaign(name), preset)
                assert c.points, name
                assert len(c.assignments) == len(c.points)

    def test_library_specs_validate(self):
        for name in campaign_names():
            validate_campaign(get_campaign(name))

    def test_incast_backpressure_meets_acceptance_grid(self):
        c = compile_campaign(get_campaign("incast_backpressure"), "quick")
        fanins = {a["fanin"] for a in c.assignments}
        transports = {a["transport"] for a in c.assignments}
        assert len(fanins) >= 3
        assert len(transports) >= 3
        assert len(c.points) == len(fanins) * len(transports)

    def test_soak_covers_all_transports(self):
        from repro.experiments.spec import TRANSPORTS
        c = compile_campaign(get_campaign("link_integrity_soak"), "quick")
        assert {a["transport"] for a in c.assignments} == set(TRANSPORTS)
        assert all("chaos" in p.params for p in c.points)

    @pytest.mark.parametrize("preset", ["quick", "default"])
    def test_soak_and_robustness_share_the_recovery_timers(self, preset):
        soak = compile_campaign(get_campaign("link_integrity_soak"), preset)
        robustness = REGISTRY["robustness"].points(get_preset(preset))
        for points in (soak.points, robustness):
            assert {canonical_json(p.spec.transport_overrides)
                    for p in points} == {canonical_json(RECOVERY_TIMERS)}


#: One digest per figure key and preset over each point's spec, flow
#: rows without their tag (a chained row keeps its ``after``) and other
#: params, in sweep order.  Recorded from the hand-written sweeps these
#: keys had before they declared campaign specs, so default and full
#: are pinned without running them.
FIGURE_DIGESTS = {
    "table5": {"quick": "4727d4ecd9478328", "default": "d1274844896fb642",
               "full": "1ed9435149564914"},
    "fig1": {"quick": "9113ed1e88e4338b", "default": "ab48cddc3fe3ae2a",
             "full": "c67a824a177c156b"},
    "fig2": {"quick": "f841624ffcad7a11", "default": "c09f76a7ffbe8522",
             "full": "2a1fc023c9738f70"},
    "fig10": {"quick": "b2fb8a9fe3016dbc", "default": "0852dc87bd580335",
              "full": "849c0552745b2997"},
    "fig13": {"quick": "8aa826ce7e1fd27a", "default": "67338321a06b8311",
              "full": "9b738100cc28a01b"},
    "fig15": {"quick": "01787ccc0e56d8c1", "default": "602edf6c622ccfb1",
              "full": "ddee9975545b7ecf"},
    "fig16": {"quick": "5b02142543a0b230", "default": "9ce7edee950123e1",
              "full": "0de028f8d585718b"},
    "fig17": {"quick": "ec95f26cf562b1f1", "default": "58b8d4174bf1fce4",
              "full": "bffe8f0f03a26e1c"},
    "fig12": {"quick": "47e1f0b21e601943", "default": "396b7bb28aa038a1",
              "full": "e88c5e4c898720de"},
    "fig14": {"quick": "7ff13ec03fd3bdcc", "default": "bf4195626fd0d54b",
              "full": "abe8f91710db2bab"},
    "scale": {"quick": "6732905a53f5e28c", "default": "e1fc3ce9d738bc2d",
              "full": "1e01de9b1c3e818b"},
    "fig8": {"quick": "7bdb2d9b84dade3a", "default": "232fc801dd7426ef",
             "full": "5c0ca685569df0ef"},
    "fig11": {"quick": "7d2bb459e1ab68d7", "default": "8e32afed2f1e5522",
              "full": "ba36ef616e1e188f"},
    "longhaul": {"quick": "63700b96b4e8e650", "default": "d246ca8c38473f19",
                 "full": "ea4433f3af288142"},
    "deepdive": {"quick": "961a104877c54d32", "default": "e80d6f9e4192985d",
                 "full": "946644715202a85a"},
    "robustness": {"quick": "12da3329943ffcf0",
                   "default": "b8358d84ed42d484",
                   "full": "fe9bef0c33484b59"},
}

#: One digest per preset over every simulated key's point ids: a point
#: id is half a cache key, so a rename orphans every cached entry.
POINT_ID_DIGESTS = {"quick": "7fe30758147d7503",
                    "default": "fc4f4ee473118fc3",
                    "full": "c58a874d0d427312"}


def _sweep_digest(key: str, preset: str) -> str:
    points = get_entry(key).points(get_preset(preset))
    rows = [[p.spec.to_dict(), [f[:4] + f[5:] for f in p.params["flows"]],
             {k: v for k, v in p.params.items() if k != "flows"}]
            for p in points]
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()[:16]


class TestFigureCampaigns:
    @pytest.mark.parametrize("preset", ["quick", "default", "full"])
    @pytest.mark.parametrize("key", list(FIGURE_DIGESTS))
    def test_sweep_is_pinned(self, key, preset):
        assert _sweep_digest(key, preset) == FIGURE_DIGESTS[key][preset]

    def test_only_the_compiler_builds_sweep_points(self):
        """No experiment module defines a ``sweep``, and ``SweepPoint(``
        is written only where the compiler lowers a spec and where the
        runner re-wraps points with their telemetry param."""
        src = Path(repro.__file__).parent
        for path in sorted((src / "experiments").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert "sweep" not in {node.name for node in tree.body
                                   if isinstance(node, ast.FunctionDef)}, path
        builders = {str(path.relative_to(src))
                    for path in src.rglob("*.py")
                    if "SweepPoint(" in path.read_text(encoding="utf-8")}
        assert builders == {"campaigns/compiler.py", "runner/runner.py"}

    @pytest.mark.parametrize("preset", ["quick", "default", "full"])
    def test_point_ids_are_pinned(self, preset):
        ids = {key: [p.point_id for p in entry.points(get_preset(preset))]
               for key, entry in REGISTRY.items() if entry.simulation}
        digest = hashlib.sha256(canonical_json(ids).encode()).hexdigest()
        assert digest[:16] == POINT_ID_DIGESTS[preset]

    @pytest.mark.parametrize("preset", ["quick", "default", "full"])
    @pytest.mark.parametrize("key", [key for key, entry in REGISTRY.items()
                                     if entry.simulation])
    def test_a_key_spec_is_valid_program_data(self, key, preset):
        """The registry lowers a key's spec at a named preset without
        validating it, so at every preset and every value of the
        options the key takes, the spec must already be valid and in
        the normal form validation returns."""
        entry = REGISTRY[key]
        options = [{}]
        if "chaos" in entry.takes:
            options += [{"chaos": name} for name in SCENARIOS]
        if "fidelity" in entry.takes:
            options += [{"fidelity": f} for f in CHOICES["fidelity"]]
        module = entry.load_module()
        for opts in options:
            spec = module.campaign(get_preset(preset), **opts)
            assert validate_campaign(spec) == spec, opts

