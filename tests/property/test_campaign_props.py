"""Property tests: campaign compilation is pure and strict.

* same spec -> identical, unique point ids (labelled groups included),
  spec dicts and cache keys (and the input spec is never mutated);
* a collective layer's chained rows wait on rows of their own ring,
  whatever layers come before it;
* chaos schedules hash into the cache key;
* random invalid mutations (unknown fields, empty groups, malformed
  chaos schedules) are rejected with pointed errors.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.compiler import CampaignError, compile_campaign
from repro.campaigns.spec import validate_campaign
from repro.runner.spec_hash import cache_key

import pytest

_fast = settings(max_examples=40, deadline=None)

_TRANSPORTS = ["dcp", "gbn", "irn", "mp_rdma", "rack_tlp", "rifl", "sdr",
               "tcp", "timeout"]

flows_layers = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.integers(1, 100_000), st.integers(0, 1_000_000)),
    min_size=1, max_size=6,
).map(lambda quads: {
    "kind": "flows",
    "flows": [[s, (d if d != s else (s + 1) % 4), size, start]
              for s, d, size, start in quads]})

bursting_layers = st.builds(
    lambda size, period, bursts, stride: {
        "kind": "bursting", "burst_bytes": size, "period_ns": period,
        "bursts": bursts, "stride": stride},
    st.integers(100, 50_000), st.integers(1_000, 500_000),
    st.integers(1, 4), st.integers(1, 3))

collective_layers = st.builds(
    lambda kind, group_size, total, hosts: {
        "kind": "collective", "collective": kind, "group_size": group_size,
        "total_bytes": total, **({"hosts": hosts} if hosts else {})},
    st.sampled_from(["allreduce", "alltoall"]), st.sampled_from([2, 4]),
    st.integers(1_000, 1_000_000),
    st.one_of(st.none(), st.permutations(range(4))))

transport_groups = st.lists(
    st.sampled_from(_TRANSPORTS), min_size=1, max_size=4, unique=True,
).map(lambda ts: {"name": "transport", "axis": "spec.transport",
                  "values": ts})

mtu_groups = st.lists(
    st.integers(200, 4000), min_size=1, max_size=3, unique=True,
).map(lambda vs: {"name": "mtu", "axis": "spec.mtu_payload", "values": vs})


@st.composite
def rates_groups(draw):
    """A labelled ``spec.cross_port_rates`` group (its values are pair
    lists, so every value needs a label)."""
    pairs = draw(st.lists(
        st.tuples(st.sampled_from([1.0, 2.5, 10.0]),
                  st.sampled_from([1.0, 2.5, 10.0])),
        min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(st.from_regex(r"[a-z0-9_-]{1,6}", fullmatch=True),
                           min_size=len(pairs), max_size=len(pairs),
                           unique=True))
    return {"name": "rates", "axis": "spec.cross_port_rates",
            "values": [[[0, a], [1, b]] for a, b in pairs],
            "labels": labels}


@st.composite
def campaign_specs(draw):
    layers = [draw(st.one_of(flows_layers, bursting_layers,
                             collective_layers))]
    if draw(st.booleans()):
        # A second, chained layer: its ``after`` indices must shift.
        layers.append({**draw(collective_layers), "name": "ring2"})
    groups = [draw(transport_groups)]
    if draw(st.booleans()):
        groups.append(draw(mtu_groups))
    if draw(st.booleans()):
        groups.append(draw(rates_groups()))
    spec = {
        "name": draw(st.sampled_from(["c1", "soak", "mix-2"])),
        "topology": {"topology": "direct", "num_hosts": 4},
        "workload": layers,
        "groups": groups,
        "seed": draw(st.integers(0, 2**16)),
    }
    if draw(st.booleans()):
        spec["sim"] = {"max_events": draw(st.integers(1, 10_000_000))}
    return spec


def _keys(compiled):
    return [cache_key(compiled.key, p.point_id, p.spec, p.params)
            for p in compiled.points]


@_fast
@given(campaign_specs())
def test_compile_is_pure(spec):
    frozen = copy.deepcopy(spec)
    a = compile_campaign(spec, "quick")
    b = compile_campaign(spec, "quick")
    assert spec == frozen, "compile mutated its input spec"
    assert [p.point_id for p in a.points] == [p.point_id for p in b.points]
    assert [p.spec.to_dict() for p in a.points] == \
           [p.spec.to_dict() for p in b.points]
    assert [p.params for p in a.points] == [p.params for p in b.points]
    assert _keys(a) == _keys(b)
    # point ids are unique within one compilation
    ids = [p.point_id for p in a.points]
    assert len(set(ids)) == len(ids)


@_fast
@given(campaign_specs())
def test_a_chained_row_waits_for_an_earlier_receive_into_its_sender(spec):
    for point in compile_campaign(spec, "quick").points:
        flows = point.params["flows"]
        for i, row in enumerate(flows):
            if len(row) == 6:
                assert 0 <= row[5] < i
                assert flows[row[5]][1] == row[0]
                assert flows[row[5]][4].rsplit(".s", 1)[0] == \
                    row[4].rsplit(".s", 1)[0]


@_fast
@given(campaign_specs(), st.integers(0, 2**16))
def test_seed_changes_nothing_for_deterministic_layers(spec, other_seed):
    # flows/bursting layers are layout-deterministic: the campaign seed
    # reaches the NetworkSpec (cache key) but never reshuffles the grid.
    a = compile_campaign(spec, "quick")
    spec2 = copy.deepcopy(spec)
    spec2["seed"] = other_seed
    b = compile_campaign(spec2, "quick")
    assert [p.point_id for p in a.points] == [p.point_id for p in b.points]
    assert [p.params["flows"] for p in a.points] == \
           [p.params["flows"] for p in b.points]


@_fast
@given(campaign_specs(),
       st.sampled_from([0.05, 0.15, 0.35]),
       st.sampled_from([0.45, 0.6, 0.95]))
def test_chaos_schedule_hashes_into_cache_key(spec, rate_a, rate_b):
    spec = copy.deepcopy(spec)
    spec["topology"] = {"topology": "testbed", "num_hosts": 4,
                        "cross_links": 1}
    spec["workload"] = [{"kind": "flows", "flows": [[0, 2, 10_000, 0]]}]
    spec["chaos"] = {"scenario": "loss_burst", "loss_rate": rate_a}
    a = compile_campaign(spec, "quick")
    spec["chaos"]["loss_rate"] = rate_b
    b = compile_campaign(spec, "quick")
    assert all(ka != kb for ka, kb in zip(_keys(a), _keys(b)))
    # while specs (the network side) stay identical
    assert [p.spec.to_dict() for p in a.points] == \
           [p.spec.to_dict() for p in b.points]


@_fast
@given(campaign_specs(), st.sampled_from([
    "unknown_top", "empty_groups", "empty_values", "bad_kind",
    "bad_chaos_scenario", "flap_without_period", "dup_group"]))
def test_invalid_mutations_rejected_with_pointed_errors(spec, mutation):
    spec = copy.deepcopy(spec)
    if mutation == "unknown_top":
        spec["surprise"] = 1
        expect = "surprise"
    elif mutation == "empty_groups":
        spec["groups"] = []
        expect = "groups"
    elif mutation == "empty_values":
        spec["groups"][0]["values"] = []
        expect = "groups[0].values"
    elif mutation == "bad_kind":
        spec["workload"][0]["kind"] = "quantum"
        expect = "workload[0].kind"
    elif mutation == "bad_chaos_scenario":
        spec["chaos"] = {"scenario": "gremlins"}
        expect = "chaos.scenario"
    elif mutation == "flap_without_period":
        spec["chaos"] = {"scenario": "link_flap", "flaps": 2,
                         "period_ns": 0}
        expect = "chaos.period_ns"
    else:
        spec["groups"] = [spec["groups"][0], copy.deepcopy(spec["groups"][0])]
        expect = "groups[1]."
    with pytest.raises(CampaignError) as exc:
        validate_campaign(spec)
    assert exc.value.path.startswith(expect.rstrip("."))
    assert str(exc.value).startswith(exc.value.path)
