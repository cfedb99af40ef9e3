"""Conformance harness: the hybrid fidelity tier vs ground truth.

Two families of guarantees (DESIGN.md "Fidelity tiers"):

* **Exactness** where the fluid model claims it: fig8's uncontended
  direct-connect points match the packet simulation bit-for-bit, and a
  transport outside the fluid whitelist (tcp) or a falsifying spec
  (injected loss) routes through the packet path unchanged.
* **Tolerance** where contention forces escalation: the fig13 WebSearch
  workload and fig14-style collectives must track the packet-level
  percentiles within the stated bounds.  The bounds are ~2x the
  divergence measured when the tier was built (see test bodies) — they
  catch model regressions, not noise.

Everything runs at the quick preset so the whole module stays inside
the CI smoke budget.
"""

from dataclasses import replace

import pytest

from repro.analysis.fct import overall_percentiles
from repro.experiments import fig8_basic_perf as fig8
from repro.experiments.common import build_network
from repro.experiments.fig13_websearch import run_scheme
from repro.experiments.presets import get_preset
from repro.runner.points import simulate_flows
from repro.sim.fidelity import FLUID_TRANSPORTS
from repro.workload.collective import run_grouped_collectives


def _rel_diff(hybrid: float, packet: float) -> float:
    return abs(hybrid - packet) / packet


# --------------------------------------------------------------- fig8
@pytest.mark.parametrize("point", fig8.sweep(get_preset("quick")),
                         ids=lambda pt: pt.point_id)
def test_fig8_point_exact(point):
    """Every fig8 point is one uncontended flow: hybrid must be exact.

    For whitelisted transports (gbn, dcp) that is the fluid model's
    closed-form schedule; tcp falls outside the whitelist and must
    reproduce the packet path bit-for-bit instead.
    """
    packet = simulate_flows(replace(point.spec, fidelity="packet"),
                            point.params)
    hybrid = simulate_flows(replace(point.spec, fidelity="hybrid"),
                            point.params)
    assert hybrid["flows"][0]["completed"]
    assert hybrid["flows"][0]["fct_ns"] == packet["flows"][0]["fct_ns"]
    assert (hybrid["flows"][0]["rx_bytes"]
            == packet["flows"][0]["rx_bytes"])
    if point.spec.transport not in FLUID_TRANSPORTS:
        # Whole-run identity, not just the FCT.
        assert hybrid["flows"] == packet["flows"]
        assert hybrid["events"] == packet["events"]


# -------------------------------------------------------------- fig13
def test_fig13_websearch_within_tolerance():
    """Contended WebSearch: hybrid tracks packet-level percentiles.

    Measured divergence at build time (quick preset, dcp-ar, load 0.3):
    p50 +1.2%, p95 -2.0%, p99 +3.6%.  Bounds are ~2x that.
    """
    p = get_preset("quick")
    stats = {}
    for fidelity in ("packet", "hybrid"):
        net = run_scheme("dcp-ar", "dcp", "ar", 0.3, p, fidelity=fidelity)
        assert all(f.completed for f in net.flows)
        stats[fidelity] = overall_percentiles(net.slowdowns())
    assert _rel_diff(stats["hybrid"]["p50"], stats["packet"]["p50"]) < 0.08
    assert _rel_diff(stats["hybrid"]["p95"], stats["packet"]["p95"]) < 0.08
    assert _rel_diff(stats["hybrid"]["p99"], stats["packet"]["p99"]) < 0.15


def test_fig13_hybrid_escalates_under_load():
    """The controller must actually *use* the packet tier here — a
    WebSearch mix saturating a 2-leaf CLOS is not fluid territory."""
    p = get_preset("quick")
    net = run_scheme("dcp-ar", "dcp", "ar", 0.5, p, fidelity="hybrid")
    summary = net.fidelity.summary()
    assert summary["packet_flows"] + summary["escalations"] > 0
    assert summary["packet_flows"] + summary["fluid_flows"] == len(net.flows)


# ---------------------------------------------- fig14-style collective
def test_collective_jct_within_tolerance():
    """Ring-AllReduce (fig14 shape): hybrid JCT within 3% of packet.

    Measured divergence at build time: -1.05% (the packet sim carries
    residual window occupancy across steps on reused QPs; the fluid
    model does not — DESIGN.md records this as accepted divergence).
    """
    jcts = {}
    for fidelity in ("packet", "hybrid"):
        net = build_network(
            transport="dcp", lb="ar", topology="clos", num_hosts=16,
            num_leaves=2, num_spines=2, link_rate=10.0, seed=73,
            fidelity=fidelity)
        groups = run_grouped_collectives(net, "allreduce", 2, 8, 400_000)
        net.run_until_flows_done(max_events=100_000_000)
        jcts[fidelity] = max(g.jct_ns() for g in groups)
    assert _rel_diff(jcts["hybrid"], jcts["packet"]) < 0.03


# ------------------------------------------------- falsifying specs
def test_injected_loss_spec_is_packet_identical():
    """loss_rate > 0 falsifies the fluid model a priori: the hybrid
    network must behave exactly like the packet one."""
    runs = {}
    for fidelity in ("packet", "hybrid"):
        net = build_network(transport="dcp", topology="direct", num_hosts=2,
                            link_rate=25.0, loss_rate=0.02, lb="ar",
                            seed=7, fidelity=fidelity)
        flow = net.open_flow(0, 1, 200_000, 0)
        net.run_until_flows_done(max_events=50_000_000)
        assert flow.completed
        runs[fidelity] = (flow.fct_ns(), flow.stats.data_pkts_sent,
                          flow.stats.retx_pkts_sent,
                          net.sim.events_processed)
    assert runs["hybrid"] == runs["packet"]
    summary = net.fidelity.summary()
    assert summary["fluid_flows"] == 0
    assert summary["reasons"] == {"injected_loss": 1}


@pytest.mark.parametrize("lb, fct_ns", [("ecmp", 691_518), ("ar", 349_836)])
def test_unequal_link_rates_spec_is_packet_identical(lb, fct_ns):
    """Slower cross links (fig11's fabric) falsify the timeline's
    every-hop-at-the-NIC-rate premise a priori.  The tier used to admit
    this flow and report 176 518 ns as exact."""
    runs = {}
    for fidelity in ("packet", "hybrid"):
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0, lb=lb, cc="none",
                            seed=3, fidelity=fidelity,
                            cross_port_rates={0: 2.5, 1: 2.5})
        flow = net.open_flow(0, 3, 200_000, 0)
        net.run_until_flows_done(max_events=50_000_000)
        assert flow.completed
        runs[fidelity] = (flow.fct_ns(), net.sim.events_processed)
    assert runs["hybrid"] == runs["packet"]
    assert runs["hybrid"][0] == fct_ns
    summary = net.fidelity.summary()
    assert summary["fluid_flows"] == 0
    assert summary["reasons"] == {"unequal_link_rates": 1}


# ------------------------------------------------- pinned event stream
@pytest.mark.parametrize("hosts, events, flows",
                         [(16, 1_568, 224), (64, 6_272, 896)])
def test_scale_hybrid_event_stream_pinned(hosts, events, flows):
    """The `scale` quick hybrid rows, exactly: the quanta a fluid flow
    is replayed in (how many, and when) are part of the model, so any
    change to how a timeline is built must leave these where they are."""
    from repro.experiments import scale

    spec, params = scale.point_spec(get_preset("quick"), "hybrid", hosts)
    payload = scale.run_scale_point(spec, params)
    assert payload["events"] == events
    assert payload["flows"] == flows
    assert payload["incomplete"] == 0
    assert round(payload["mean_jct_ns"] / 1e6, 4) == 0.6413
    assert payload["fluid"]["fluid_flows"] == flows
    assert payload["fluid"]["packet_flows"] == 0
    assert payload["fluid"]["escalations"] == 0
    assert payload["fluid"]["reasons"] == {"uncontended": flows}
