"""Dynamic verification of Table 2's R1-R4 claims for DCP.

Each requirement is exercised end-to-end in the simulator rather than
asserted statically.
"""

from repro.experiments.common import build_network


def test_r1_no_pfc_dependence():
    """R1: DCP fabrics run without PFC and still deliver everything."""
    net = build_network(transport="dcp", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0, lb="ar",
                        seed=61, buffer_bytes=500_000)
    assert all(sw.pfc is None for sw in net.fabric.switches)
    # burst enough traffic to congest the tiny buffer
    flows = [net.open_flow(s, 7, 150_000, 0) for s in range(4)]
    net.run_until_flows_done(max_events=30_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("trimmed") > 0  # it really congested


def test_r2_packet_level_lb_compatibility():
    """R2: per-packet adaptive routing causes zero spurious
    retransmissions."""
    net = build_network(transport="dcp", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ar", seed=62, buffer_bytes=8_000_000,
                        trim_threshold_bytes=8_000_000)
    flows = [net.open_flow(i, (i + 4) % 8, 200_000, 0) for i in range(4)]
    net.run_until_flows_done(max_events=30_000_000)
    assert all(f.completed for f in flows)
    # the four flows share leaf0's two uplinks (ports 4 and 5)
    leaf0 = net.fabric.switches[0]
    assert all(leaf0.ports[4 + s].link.stats.delivered_packets > 0
               for s in range(2))
    assert sum(f.stats.retx_pkts_sent for f in flows) == 0


def test_r3_no_rto_for_any_loss():
    """R3: heavy congestion loss recovered entirely without RTOs."""
    net = build_network(transport="dcp", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0, lb="ar",
                        seed=63, buffer_bytes=400_000)
    flows = [net.open_flow(s, 7, 100_000, 0) for s in range(5)]
    net.run_until_flows_done(max_events=30_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("trimmed") > 0
    assert sum(f.stats.timeouts for f in flows) == 0


def test_r4_memory_overhead_is_logarithmic():
    """R4: receiver tracking state stays tiny regardless of BDP (the
    Table 3 numbers)."""
    from repro.analysis.models import tracking_memory_bytes
    dcp_lo, dcp_hi = tracking_memory_bytes("dcp", bdp_pkts=2560)
    bitmap_lo, _ = tracking_memory_bytes("bdp", bdp_pkts=2560)
    assert dcp_lo == dcp_hi
    assert dcp_hi * 10 <= bitmap_lo
    assert tracking_memory_bytes("dcp", bdp_pkts=100 * 2560)[1] == dcp_hi


def test_r1_vs_gbn_contrast():
    """Without PFC the GBN baseline degrades where DCP does not."""
    fcts = {}
    for scheme in ("dcp", "gbn"):
        net = build_network(transport=scheme, topology="testbed",
                            num_hosts=4, cross_links=1, link_rate=10.0,
                            loss_rate=0.02, lb="ecmp", seed=64)
        f = net.open_flow(0, 2, 500_000, 0)
        net.run_until_flows_done(max_events=40_000_000)
        assert f.completed
        fcts[scheme] = f.fct_ns()
    assert fcts["dcp"] < fcts["gbn"]
