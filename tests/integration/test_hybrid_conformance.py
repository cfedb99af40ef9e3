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

from repro.analysis.fct import overall_percentiles, slowdowns
from repro.experiments import fig8_basic_perf as fig8
from repro.experiments import fig13_websearch as fig13
from repro.experiments.common import build_network
from repro.experiments.presets import get_preset
from repro.experiments.spec import NetworkSpec
from repro.runner.points import simulate_flows
from repro.sim.fidelity import FLUID_TRANSPORTS
from repro.workload.collective import collective_rows, group_jcts


def _rel_diff(hybrid: float, packet: float) -> float:
    return abs(hybrid - packet) / packet


# --------------------------------------------------------------- fig8
@pytest.mark.parametrize(
    "point", fig8.sweep(get_preset("quick")),
    ids=lambda pt: f"{pt.spec.transport}-{pt.point_id.rsplit('-', 1)[1]}")
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
def _fig13_dcp(load: float, fidelity: str) -> dict:
    """fig13's dcp-ar point at ``load``, simulated at ``fidelity``."""
    (point,) = [pt for pt in fig13.sweep(get_preset("quick"), fidelity)
                if pt.point_id == f"load-{load}.scheme-dcp-ar"]
    return simulate_flows(point.spec, point.params)


def test_fig13_websearch_within_tolerance():
    """Contended WebSearch: hybrid tracks packet-level percentiles.

    Measured divergence at build time (quick preset, dcp-ar, load 0.3):
    p50 +1.2%, p95 -2.0%, p99 +3.6%.  Bounds are ~2x that.
    """
    stats = {}
    for fidelity in ("packet", "hybrid"):
        payload = _fig13_dcp(0.3, fidelity)
        assert all(f["completed"] for f in payload["flows"])
        stats[fidelity] = overall_percentiles(slowdowns(payload))
    assert _rel_diff(stats["hybrid"]["p50"], stats["packet"]["p50"]) < 0.08
    assert _rel_diff(stats["hybrid"]["p95"], stats["packet"]["p95"]) < 0.08
    assert _rel_diff(stats["hybrid"]["p99"], stats["packet"]["p99"]) < 0.15


def test_fig13_hybrid_escalates_under_load():
    """The controller must actually *use* the packet tier here — a
    WebSearch mix saturating a 2-leaf CLOS is not fluid territory."""
    payload = _fig13_dcp(0.5, "hybrid")
    summary = payload["fluid"]
    assert summary["packet_flows"] + summary["escalations"] > 0
    assert (summary["packet_flows"] + summary["fluid_flows"]
            == len(payload["flows"]))


# ---------------------------------------------- fig14-style collective
def test_collective_jct_within_tolerance():
    """Ring-AllReduce (fig14 shape): hybrid JCT within 3% of packet.

    Measured divergence at build time: -1.05% (the packet sim carries
    residual window occupancy across steps on reused QPs; the fluid
    model does not — DESIGN.md records this as accepted divergence).
    """
    jcts = {}
    rows = collective_rows("allreduce", [range(8), range(8, 16)], 400_000)
    for fidelity in ("packet", "hybrid"):
        spec = NetworkSpec(
            transport="dcp", lb="ar", topology="clos", num_hosts=16,
            num_leaves=2, num_spines=2, link_rate=10.0, seed=73,
            fidelity=fidelity)
        payload = simulate_flows(spec, {"flows": rows,
                                        "max_events": 100_000_000})
        jcts[fidelity] = max(group_jcts(payload["flows"]))
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


# ------------------------------------------------- mid-flight falsifier
def test_a_signal_raised_mid_flight_escalates_within_one_refresh():
    """A congestion signal raised while a fluid flow runs escalates it,
    with no launch after the signal to notice it: once the network has
    built a packet, the controller's own tick re-reads the fabric every
    ``refresh_ns`` while a fluid flow is active."""
    net = build_network(transport="dcp", lb="ar", cc="none", topology="clos",
                        num_hosts=8, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=5, fidelity="hybrid")
    ctrl = net.fidelity
    net.open_flow(0, 1, 40_000, 0)
    net.open_flow(2, 1, 40_000, 1_000)   # same receiver: both go packet
    start_ns = 5_000_000                 # long after the quiet period
    late = net.open_flow(4, 5, 2_000_000, start_ns)
    raised_ns = start_ns + 300_000       # mid-flight: the flow takes ~1.6 ms
    stats = net.fabric.switches[0].stats

    def mark() -> None:
        stats.ecn_marked += 1

    net.sim.schedule(raised_ns, mark)
    net.run_until_flows_done(max_events=10_000_000)

    assert late.completed
    (entry,) = [e for e in ctrl.log if e["flow_id"] == late.flow_id
                and e["action"] == "escalate"]
    assert entry["reason"] == "congestion_signal"
    assert raised_ns <= entry["t_ns"] <= raised_ns + ctrl.refresh_ns
    # No fluid flow is left, so no tick is either.
    assert ctrl._tick_token is None


# ------------------------------------------------- pinned event stream
@pytest.mark.parametrize("hosts, events, flows",
                         [(16, 448, 224), (64, 1_792, 896)])
def test_scale_hybrid_event_stream_pinned(hosts, events, flows):
    """The `scale` quick hybrid rows, exactly: every flow runs fluid and
    costs two events (launch, completion), and the JCT is the closed
    form's, so any change to how a timeline is built or a fluid flow is
    scheduled must leave these where they are."""
    from repro.experiments import scale

    point, = [pt for pt in scale.sweep(get_preset("quick"))
              if pt.spec.fidelity == "hybrid" and pt.spec.num_hosts == hosts]
    payload = simulate_flows(point.spec, point.params)
    assert payload["events"] == events
    assert len(payload["flows"]) == flows
    assert all(f["completed"] for f in payload["flows"])
    jcts = group_jcts(payload["flows"])
    assert round(sum(jcts) / len(jcts) / 1e6, 4) == 0.6413
    assert payload["fluid"]["fluid_flows"] == flows
    assert payload["fluid"]["packet_flows"] == 0
    assert payload["fluid"]["escalations"] == 0
    assert payload["fluid"]["reasons"] == {"uncontended": flows}
