"""Behavioral tests for the timeout-only transport."""

from repro.experiments.common import build_network
from repro.rnic.timeout import TimeoutTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(TimeoutTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.stats.timeouts == 0


def test_every_loss_costs_an_rto():
    net = build_network(transport="timeout", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.02,
                        lb="ecmp", seed=51)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.timeouts > 0


def test_blind_retransmission_duplicates():
    """Without SACK the sender resends delivered packets too."""
    net = build_network(transport="timeout", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.05,
                        lb="ecmp", seed=52)
    flow = net.open_flow(0, 2, 100_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.dup_pkts_received > 0
    assert flow.rx_bytes == 100_000  # accounting still exact


def test_order_tolerant_reception():
    """Spectrum-style OOO acceptance: reordering alone costs nothing."""
    net = build_network(transport="timeout", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, loss_rate=0.0,
                        lb="ar", seed=53,
                        # half-rate cross links: AR uses both
                        cross_port_rates={0: 5.0, 1: 5.0})
    flow = net.open_flow(0, 2, 300_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    assert all(sw1.ports[2 + c].link.stats.delivered_packets > 0
               for c in range(2))
    assert flow.stats.retx_pkts_sent == 0
    assert flow.stats.timeouts == 0


def test_rto_never_counts_as_coarse_timeout():
    """§4.5 accounting split: a regular RTO increments ``timeouts`` only.

    The coarse counter is reserved for crash-survival fallback timers
    (DCP's §4.5 timer, SDR's last-resort timer).  If any timer-heavy
    transport started routing plain RTOs through
    ``count_coarse_timeout``, the chaos campaign could no longer tell
    loss recovery apart from failure recovery.
    """
    net = build_network(transport="timeout", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.02,
                        lb="ecmp", seed=51)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.timeouts > 0
    assert sum(t.stats.coarse_timeouts for t in net.transports) == 0


def test_coarse_timeout_also_counts_as_timeout():
    """``count_coarse_timeout`` must ride through ``count_timeout`` so
    ``timeouts >= coarse_timeouts`` holds for every transport (the chaos
    report and EXPERIMENTS.md both rely on the superset relation)."""
    from repro.rnic.base import Flow
    sim, fab, a, b = make_direct_pair(TimeoutTransport)
    flow = Flow(0, 1, 1000, 0)
    a.count_coarse_timeout(flow)
    assert a.stats.coarse_timeouts == 1
    assert a.stats.timeouts == 1
    assert flow.stats.timeouts == 1


def test_sdr_holes_repair_without_any_timeout_counter():
    """SDR's per-hole timers are *not* RTOs: under plain loss it must
    retransmit the holes while leaving both ``timeouts`` and
    ``coarse_timeouts`` untouched — the counters DCP's §4.5 accounting
    (and fig17's interpretation) depend on."""
    net = build_network(transport="sdr", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.02,
                        lb="ecmp", seed=51)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.retx_pkts_sent > 0        # losses really happened
    assert flow.stats.timeouts == 0
    assert sum(t.stats.coarse_timeouts for t in net.transports) == 0


def test_goodput_collapses_vs_dcp():
    """Fig 17's worst line: timeout-only much slower than DCP under loss."""
    results = {}
    for scheme in ("timeout", "dcp"):
        net = build_network(transport=scheme, topology="testbed",
                            num_hosts=4, cross_links=1, link_rate=10.0,
                            loss_rate=0.02, lb="ecmp", seed=54)
        f = net.open_flow(0, 2, 200_000, 0)
        net.run_until_flows_done(max_events=40_000_000)
        assert f.completed
        results[scheme] = f.fct_ns()
    assert results["timeout"] > 2 * results["dcp"]
