"""Behavioral tests for IRN (RNIC-SR): SACKs, recovery mode, RTOs."""

from repro.experiments.common import build_network
from repro.rnic.irn import IrnTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(IrnTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0


def test_selective_repeat_is_precise_on_single_path():
    """On a single path, IRN retransmits roughly only what was lost."""
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.02,
                        lb="ecmp", seed=13)
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    drops = net.fabric.switch_stats_sum("dropped_forced")
    # selective repeat: retx close to the drop count (allow RTO extras)
    assert flow.stats.retx_pkts_sent <= 3 * drops + 10


def test_spurious_retransmissions_under_packet_spray():
    """Issue #1 (§2.2): packet-level LB + IRN => spurious retransmission."""
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=4, link_rate=10.0, loss_rate=0.0,
                        lb="ar", seed=14,
                        # cross links slower than the NIC make AR spread
                        # packets; the quarter-rate one forces persistent
                        # reordering
                        cross_port_rates={0: 5.0, 1: 5.0, 2: 5.0, 3: 1.25})
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    drops = net.fabric.switch_stats_sum("dropped_forced") + \
        net.fabric.switch_stats_sum("dropped_congestion")
    assert drops == 0
    assert flow.stats.retx_pkts_sent > 0          # retransmitted with no loss
    assert flow.stats.dup_pkts_received > 0       # duplicates at the receiver


def test_no_spurious_retx_single_path_no_loss():
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, lb="ecmp", seed=15)
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0


def test_recovery_exits_on_cumulative_pass():
    """After recovery the sender resumes clean transmission."""
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.01,
                        lb="ecmp", seed=16)
    flow = net.open_flow(0, 2, 1_000_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    tr = net.transports[0]
    st = tr._send_state(list(tr.qps.values())[0])
    assert not st.in_recovery
    assert not st.rtx_queue


def test_retransmitted_once_per_recovery():
    """IRN never fast-retransmits the same PSN twice in one episode —
    a re-dropped retransmission waits for the RTO (Issue #2)."""
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.1,
                        lb="ecmp", seed=17)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    # heavy loss with re-dropped retransmissions must produce timeouts
    assert flow.stats.timeouts > 0


def test_tail_loss_needs_rto():
    """Losing only the tail packet generates no SACK: RTO required."""
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.25,
                        lb="ecmp", seed=18)
    flow = net.open_flow(0, 2, 3_000, 0)  # 3 packets: tail loss likely
    net.run_until_flows_done(max_events=20_000_000)
    assert flow.completed


def test_exactly_once_payload_accounting():
    net = build_network(transport="irn", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, loss_rate=0.05,
                        lb="ar", seed=19,
                        # half-rate cross links: AR reorders over both
                        cross_port_rates={0: 5.0, 1: 5.0})
    flow = net.open_flow(0, 2, 300_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    assert all(sw1.ports[2 + c].link.stats.delivered_packets > 0
               for c in range(2))
    assert flow.rx_bytes == 300_000
