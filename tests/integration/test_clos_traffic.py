"""Integration: mixed workloads across the CLOS fabric, all transports."""

import pytest

from repro.experiments.common import build_network
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload

TRANSPORT_LB = [("dcp", "ar"), ("irn", "ar"), ("irn", "ecmp"),
                ("gbn", "ecmp"), ("mp_rdma", "ecmp"),
                ("rack_tlp", "ecmp"), ("timeout", "ecmp")]


@pytest.mark.parametrize("transport,lb", TRANSPORT_LB)
def test_websearch_all_flows_complete(transport, lb):
    net = build_network(transport=transport, lb=lb, topology="clos",
                        num_hosts=8, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=71, buffer_bytes=2_000_000)
    wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=50),
                         duration_ns=1_000_000, seed=71, max_flows=60)
    flows = wl.generate(net)
    assert len(flows) > 10
    net.run_until_flows_done(max_events=60_000_000)
    incomplete = [f for f in flows if not f.completed]
    assert not incomplete, f"{transport}/{lb}: {len(incomplete)} stuck flows"
    for f in flows:
        assert f.rx_bytes == f.size_bytes


def test_incast_under_dcp_completes_without_timeouts():
    net = build_network(transport="dcp", lb="ar", topology="clos",
                        num_hosts=16, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=72, buffer_bytes=1_000_000)
    wl = IncastWorkload(load=0.1, fan_in=8, flow_bytes=20_000,
                        duration_ns=1_000_000, seed=72)
    flows = wl.generate(net)
    assert flows
    net.run_until_flows_done(max_events=60_000_000)
    assert all(f.completed for f in flows)
    # Data-packet loss never causes a DCP timeout (trims are recovered by
    # HO round trips).  The only legitimate trigger for the coarse
    # fallback is a dropped ACK — DCP ACKs are droppable by design (§4.2).
    timeouts = sum(f.stats.timeouts for f in flows)
    acks_dropped = net.fabric.switch_stats_sum("acks_dropped")
    assert timeouts <= acks_dropped
    assert net.fabric.switch_stats_sum("trimmed") > 0


def test_flow_conservation_counters():
    """Switch counters and endpoint counters must reconcile."""
    net = build_network(transport="dcp", lb="ar", topology="clos",
                        num_hosts=8, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=73, buffer_bytes=400_000)
    flows = [net.open_flow(s, 7, 100_000, 0) for s in range(4)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    trims = net.fabric.switch_stats_sum("trimmed")
    ho_lost = net.fabric.switch_stats_sum("ho_dropped")
    turned = sum(tr.stats.ho_turned for tr in net.transports)
    received = sum(tr.stats.ho_received for tr in net.transports)
    # every trim that wasn't dropped in a control queue reached the
    # receiver, was turned around, and (minus in-flight none, since the
    # run drained) reached the sender
    assert turned <= trims
    assert received <= turned
    assert trims - turned <= ho_lost + trims  # sanity: no double count
    retx = sum(f.stats.retx_pkts_sent for f in flows)
    timeouts = sum(f.stats.timeouts for f in flows)
    if timeouts == 0 and ho_lost == 0:
        assert retx == trims == received


def test_deterministic_given_seed():
    def run():
        net = build_network(transport="dcp", lb="ar", topology="clos",
                            num_hosts=8, num_leaves=2, num_spines=2,
                            link_rate=10.0, seed=99, buffer_bytes=1_000_000)
        wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=50),
                             duration_ns=500_000, seed=99, max_flows=30)
        flows = wl.generate(net)
        net.run_until_flows_done(max_events=30_000_000)
        # flow_ids come from a process-global counter; compare by position
        return [(f.src, f.dst, f.size_bytes, f.rx_complete_ns) for f in flows]

    assert run() == run()


def test_cross_dc_delay_scaling():
    """Flows across 500 us spine links complete; RTOs scale with RTT."""
    net = build_network(transport="dcp", lb="ar", topology="clos",
                        num_hosts=8, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=74,
                        spine_link_delay_ns=500_000)
    f = net.open_flow(0, 7, 500_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert f.completed
    assert f.stats.timeouts == 0
    # one-way >= 1.002 ms, so FCT must exceed it
    assert f.fct_ns() > 1_000_000
