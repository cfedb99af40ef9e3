"""Behavioral tests for RACK-TLP."""

from repro.experiments.common import build_network
from repro.rnic.rack_tlp import RackTlpTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(RackTlpTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0


def test_loss_recovered_without_rto():
    """RACK detects mid-flow losses via the reordering window, no RTO."""
    net = build_network(transport="rack_tlp", topology="testbed",
                        num_hosts=4, cross_links=1, link_rate=10.0,
                        loss_rate=0.01, lb="ecmp", seed=41)
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.retx_pkts_sent > 0
    assert flow.stats.timeouts == 0


def test_reordering_tolerated_without_spurious_retx():
    """One reordering-window of tolerance: pure reordering, no retx."""
    net = build_network(transport="rack_tlp", topology="testbed",
                        num_hosts=4, cross_links=2, link_rate=10.0,
                        loss_rate=0.0, lb="ar", seed=42,
                        # half-rate cross links: AR uses both
                        cross_port_rates={0: 5.0, 1: 5.0})
    flow = net.open_flow(0, 2, 300_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    assert all(sw1.ports[2 + c].link.stats.delivered_packets > 0
               for c in range(2))
    # equal-rate paths keep skew below min RTT: no spurious marks
    assert flow.stats.retx_pkts_sent == 0


def test_tlp_probe_recovers_tail_loss():
    """Tail loss: the TLP probe elicits SACKs instead of waiting for RTO."""
    sim, fab, a, b = make_direct_pair(RackTlpTransport)
    flow = send_flow(sim, a, b, 10_000)
    # drop the last data packet once on the wire
    link = a.nic.link
    orig = link.deliver
    state = {"dropped": False}

    def drop_tail(packet):
        from repro.net.packet import PacketKind
        if (packet.kind == PacketKind.DATA and packet.psn == 9
                and not state["dropped"]):
            state["dropped"] = True
            return
        orig(packet)

    link.deliver = drop_tail
    drain(sim)
    assert flow.completed
    assert state["dropped"]
    st = a._send_state(list(a.qps.values())[0])
    assert st.tlp_probes >= 1
    assert flow.stats.timeouts == 0  # TLP beat the RTO


def test_retransmission_delayed_by_reordering_window():
    """RACK trades latency for accuracy: recovery waits ~1 RTT."""
    net_r = build_network(transport="rack_tlp", topology="testbed",
                          num_hosts=4, cross_links=1, link_rate=10.0,
                          loss_rate=0.02, lb="ecmp", seed=43)
    f_r = net_r.open_flow(0, 2, 500_000, 0)
    net_r.run_until_flows_done(max_events=40_000_000)

    net_d = build_network(transport="dcp", topology="testbed",
                          num_hosts=4, cross_links=1, link_rate=10.0,
                          loss_rate=0.02, lb="ecmp", seed=43)
    f_d = net_d.open_flow(0, 2, 500_000, 0)
    net_d.run_until_flows_done(max_events=40_000_000)

    assert f_r.completed and f_d.completed
    assert f_d.fct_ns() <= f_r.fct_ns()  # Fig 17 ordering: DCP >= RACK


def test_rtt_estimation():
    sim, fab, a, b = make_direct_pair(RackTlpTransport, prop_delay_ns=2_000)
    flow = send_flow(sim, a, b, 50_000)
    drain(sim)
    st = a._send_state(list(a.qps.values())[0])
    assert flow.completed
    assert 4_000 <= st.min_rtt < 50_000
    assert st.srtt > 0
