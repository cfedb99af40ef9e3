"""Integration: collective workloads (Ring-AllReduce, AllToAll) as flow
rows, chained rows and the drain loop that waits for them."""

import hashlib

import pytest

from repro.experiments import common
from repro.experiments.common import NetworkSpec, build_network
from repro.experiments.presets import get_preset
from repro.experiments.registry import get_entry
from repro.rnic.base import RnicTransport
from repro.runner import points
from repro.runner.points import simulate_flows
from repro.runner.runner import _resolve
from repro.sim import fidelity
from repro.workload.collective import (collective_rows, group_jcts,
                                       run_grouped_collectives)

_SPEC = dict(transport="dcp", lb="ar", topology="clos", num_hosts=8,
             num_leaves=2, num_spines=2, link_rate=10.0, seed=81,
             buffer_bytes=2_000_000)


def _spec(**over) -> NetworkSpec:
    return NetworkSpec(**{**_SPEC, **over})


def _net(**over):
    return build_network(**{**_SPEC, **over})


def _run(rows, **over) -> list[dict]:
    return simulate_flows(_spec(**over), {"flows": rows,
                                          "max_events": 60_000_000})["flows"]


def _ring(members, total_bytes):
    return collective_rows("allreduce", [members], total_bytes)


def _records(flows) -> list[dict]:
    """The JCT-relevant fields of simulate_flows records, from Flows."""
    return [{"tag": f.tag, "completed": f.completed, "start_ns": f.start_ns,
             "fct_ns": f.fct_ns() if f.completed else None} for f in flows]


def test_ring_allreduce_step_count():
    records = _run(_ring([0, 1, 2, 3], 40_000))
    # 2(k-1) steps, one flow per member per step
    assert len(records) == 4 * 2 * (4 - 1)
    assert all(r["completed"] for r in records)
    assert group_jcts(records)[0] > 0


def test_ring_dependency_ordering():
    """A host's step-s+1 flow starts only after its step-s receive."""
    records = _run(_ring([0, 1, 2, 3], 40_000))
    by_step = {}
    for r in records:
        step = int(r["tag"].rsplit(".s", 1)[1])
        by_step.setdefault(step, []).append(r)
    for step in range(1, 6):
        earliest_next = min(r["start_ns"] for r in by_step[step])
        earliest_prev_done = min(r["start_ns"] + r["fct_ns"]
                                 for r in by_step[step - 1])
        assert earliest_next >= earliest_prev_done
        # ... and exactly on it, for the sender whose receive it was.
        done = {r["dst"]: r["start_ns"] + r["fct_ns"]
                for r in by_step[step - 1]}
        assert all(r["start_ns"] == done[r["src"]] for r in by_step[step])


def test_ring_slice_sizes():
    rows = _ring([0, 1, 2, 3], 41_000)
    assert all(size == 41_000 // 4 for _src, _dst, size, *_ in rows)


def test_alltoall_full_mesh():
    records = _run(collective_rows("alltoall", [[0, 1, 2, 3]], 40_000))
    assert len(records) == 4 * 3
    pairs = {(r["src"], r["dst"]) for r in records}
    assert len(pairs) == 12
    assert all(r["completed"] for r in records)


def test_grouped_collectives_share_fabric():
    net = _net(num_hosts=16)
    flows = run_grouped_collectives(net, "alltoall", num_groups=4,
                                    group_size=4, total_bytes=40_000)
    net.run_until_flows_done(max_events=60_000_000)
    jcts = group_jcts(_records(flows))
    assert len(jcts) == 4
    assert all(j > 0 for j in jcts)
    members = {}
    for f in flows:
        members.setdefault(f.tag, set()).update((f.src, f.dst))
    groups = list(members.values())
    for i in range(4):
        for j in range(i + 1, 4):
            assert not groups[i] & groups[j]


def test_jct_requires_completion():
    net = _net()
    flows = net.open_rows(collective_rows("alltoall", [[0, 1]], 10_000))
    with pytest.raises(ValueError):
        group_jcts(_records(flows))
    # A chained row that was never posted has no JCT either.
    records = _run(_ring([0, 1, 2, 3], 40_000)[:8])
    records[-1] = {**records[-1], "completed": False, "fct_ns": None,
                   "start_ns": None}
    with pytest.raises(ValueError, match="1 flows still running"):
        group_jcts(records)


def test_collective_validation():
    net = _net()
    with pytest.raises(ValueError, match="at least two members"):
        collective_rows("allreduce", [[0]], 1000)
    with pytest.raises(ValueError, match="at least two members"):
        collective_rows("alltoall", [[3]], 1000)
    with pytest.raises(ValueError, match="not enough hosts"):
        run_grouped_collectives(net, "alltoall", num_groups=5, group_size=4,
                                total_bytes=1000)
    with pytest.raises(ValueError, match="unknown collective"):
        run_grouped_collectives(net, "scatter", num_groups=1, group_size=4,
                                total_bytes=1000)
    with pytest.raises(ValueError, match="unknown collective"):
        collective_rows("scatter", [[0, 1]], 1000, "x")


def test_dcp_beats_gbn_on_congested_alltoall():
    """The Fig 12/14 shape at miniature scale."""
    jcts = {}
    rows = collective_rows("alltoall", [[0, 1, 2, 3], [4, 5, 6, 7]],
                           200_000, "alltoall")
    for scheme, lb in (("dcp", "ar"), ("gbn", "ecmp")):
        records = _run(rows, transport=scheme, lb=lb, buffer_bytes=500_000)
        jcts[scheme] = max(group_jcts(records))
    assert jcts["dcp"] <= jcts["gbn"] * 1.1


# ------------------------------------------------------- chained rows
def test_a_chained_row_opens_on_its_pairs_qp_at_the_predecessors_receive():
    net = _net()
    first, second, third = net.open_rows([[0, 1, 5_000, 0, "a"],
                                          [1, 0, 5_000, 0, "b"],
                                          [0, 1, 7_000, 0, "c", 0]])
    assert third is None
    net.run_until_flows_done(max_events=1_000_000)
    third = net.flows[-1]
    assert (third.tag, third.size_bytes) == ("c", 7_000)
    assert third.start_ns == first.rx_complete_ns
    assert third.completed and second.completed
    # One QP pair for (0, 1): the reused QP keeps the first flow's entropy.
    assert len(net.transports[0].qps) == 2


@pytest.mark.parametrize("rows", [
    [[0, 1, 1_000, 0, "x", 0]],
    [[0, 1, 1_000, 0, "x"], [1, 0, 1_000, 0, "y", -1]],
    [[0, 1, 1_000, 0, "x", 1], [1, 0, 1_000, 0, "y"]],
], ids=["itself", "negative", "later"])
def test_after_must_name_an_earlier_row(rows):
    with pytest.raises(ValueError, match="earlier row"):
        _net().open_rows(rows)


def test_a_chaos_point_refuses_chained_rows():
    params = {"flows": _ring([0, 1, 2, 3], 40_000),
              "chaos": {"name": "none", "events": []}}
    with pytest.raises(ValueError, match="chained rows"):
        simulate_flows(_spec(), params)


def test_a_row_never_posted_is_reported_open():
    rows = _ring([0, 1, 2, 3], 4_000_000)
    payload = simulate_flows(_spec(), {"flows": rows, "max_events": 20_000})
    records = payload["flows"]
    assert len(records) == len(rows)
    assert [r["tag"] for r in records] == [row[4] for row in rows]
    unposted = [r for r in records if r["start_ns"] is None]
    assert unposted and all(not r["completed"] and r["fct_ns"] is None
                            and r["rx_bytes"] == 0 for r in unposted)


def test_drain_waits_for_flows_opened_after_a_chunk(monkeypatch):
    """Ring steps open from completion callbacks; the drain loop must
    wait for them across chunk boundaries, not only for the flows that
    existed when it started."""
    monkeypatch.setattr(common, "DRAIN_CHUNK_EVENTS", 100)
    net = _net()
    run_grouped_collectives(net, "allreduce", 2, 4, 40_000)
    net.run_until_flows_done(max_events=30_000_000)
    assert net.sim.events_processed > 100 * 10
    assert len(net.flows) == 2 * 4 * 2 * 3
    assert all(f.completed for f in net.flows)


# ------------------------------------------------------ pinned posting
#: Per quick fig12/fig14/scale point: sha256 over every flow it posts,
#: ``(flow_id, src, dst, size, start_ns, rx_complete_ns, qp.entropy)``
#: in posting order: the answers, which no change to how a point drives
#: the event engine may move.
COLLECTIVE_FLOW_DIGESTS = {
    ("fig12", "collective-allreduce.scheme-dcp-ar"): "dabb982f5d61549f",
    ("fig12", "collective-allreduce.scheme-gbn-ecmp"): "f26b8f03e0c8db66",
    ("fig12", "collective-alltoall.scheme-dcp-ar"): "f17af80ac63ee143",
    ("fig12", "collective-alltoall.scheme-gbn-ecmp"): "ccdaef1d6a41240d",
    ("fig14", "collective-allreduce.scheme-gbn-ecmp"): "3d70a2da9a7edbb1",
    ("fig14", "collective-allreduce.scheme-irn-ar"): "3d70a2da9a7edbb1",
    ("fig14", "collective-allreduce.scheme-mp_rdma-ecmp"): "3d70a2da9a7edbb1",
    ("fig14", "collective-allreduce.scheme-dcp-ar"): "3cbf02e1253982b5",
    ("fig14", "collective-alltoall.scheme-gbn-ecmp"): "cab85b9a7e7bdc8d",
    ("fig14", "collective-alltoall.scheme-irn-ar"): "cab85b9a7e7bdc8d",
    ("fig14", "collective-alltoall.scheme-mp_rdma-ecmp"): "6fedef4dc2591aba",
    ("fig14", "collective-alltoall.scheme-dcp-ar"): "0ce86a1f6ea3554b",
    ("scale", "cell-packet-16-2-2"): "c4920baf38213415",
    ("scale", "cell-packet-64-8-4"): "1ec71b4989ad89ec",
    ("scale", "cell-hybrid-16-2-2"): "6aac5d4f1d1aca44",
    ("scale", "cell-hybrid-64-8-4"): "7c7891650be56cca",
}

#: ... and what each point costs the event engine: the model, not the
#: answer.  A hybrid point is two events per fluid flow.
COLLECTIVE_EVENTS = {
    ("fig12", "collective-allreduce.scheme-dcp-ar"): 30_048,
    ("fig12", "collective-allreduce.scheme-gbn-ecmp"): 49_578,
    ("fig12", "collective-alltoall.scheme-dcp-ar"): 16_024,
    ("fig12", "collective-alltoall.scheme-gbn-ecmp"): 25_624,
    ("fig14", "collective-allreduce.scheme-gbn-ecmp"): 38_448,
    ("fig14", "collective-allreduce.scheme-irn-ar"): 38_448,
    ("fig14", "collective-allreduce.scheme-mp_rdma-ecmp"): 38_448,
    ("fig14", "collective-allreduce.scheme-dcp-ar"): 23_088,
    ("fig14", "collective-alltoall.scheme-gbn-ecmp"): 19_224,
    ("fig14", "collective-alltoall.scheme-irn-ar"): 19_224,
    ("fig14", "collective-alltoall.scheme-mp_rdma-ecmp"): 19_224,
    ("fig14", "collective-alltoall.scheme-dcp-ar"): 11_544,
    ("scale", "cell-packet-16-2-2"): 53_984,
    ("scale", "cell-packet-64-8-4"): 215_936,
    ("scale", "cell-hybrid-16-2-2"): 448,
    ("scale", "cell-hybrid-64-8-4"): 1_792,
}


def test_collective_points_post_the_pinned_flows(monkeypatch):
    entropy, nets = {}, []

    def post_flow(self, qp, flow, real=RnicTransport.post_flow):
        entropy.setdefault(flow.flow_id, qp.entropy)
        return real(self, qp, flow)

    def register(self, qp, flow, real=fidelity.FidelityController.register):
        entropy.setdefault(flow.flow_id, qp.entropy)
        return real(self, qp, flow)

    def network(self, spec, real=points.PointTelemetry.network):
        nets.append(real(self, spec))
        return nets[-1]

    monkeypatch.setattr(RnicTransport, "post_flow", post_flow)
    monkeypatch.setattr(fidelity.FidelityController, "register", register)
    monkeypatch.setattr(points.PointTelemetry, "network", network)
    got, events = {}, {}
    for key in ("fig12", "fig14", "scale"):
        entry = get_entry(key)
        for point in entry.points(get_preset("quick")):
            entropy.clear()
            nets.clear()
            _resolve(entry.point_runner())(point.spec, point.params)
            net, = nets
            digest = hashlib.sha256()
            for f in net.flows:
                digest.update(repr((f.flow_id, f.src, f.dst, f.size_bytes,
                                    f.start_ns, f.rx_complete_ns,
                                    entropy[f.flow_id])).encode())
            got[key, point.point_id] = digest.hexdigest()[:16]
            events[key, point.point_id] = net.sim.events_processed
    assert got == COLLECTIVE_FLOW_DIGESTS
    assert events == COLLECTIVE_EVENTS
