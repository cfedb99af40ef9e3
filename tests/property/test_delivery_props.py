"""End-to-end property tests: delivery invariants under random loss.

These exercise whole transport stacks through a lossy switch with
hypothesis-chosen loss rates, flow sizes and seeds, asserting the
invariants that must hold regardless of timing:

* every flow completes (reliability),
* exactly ``size`` payload bytes are delivered (no loss, no dup
  counting),
* DCP never times out on data loss and never delivers duplicates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_network

_slow = settings(max_examples=12, deadline=None)


@_slow
@given(loss=st.sampled_from([0.0, 0.005, 0.02, 0.08]),
       size=st.integers(2_000, 120_000),
       seed=st.integers(0, 50))
def test_dcp_reliability_invariants(loss, size, seed):
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, loss_rate=loss,
                        lb="ar", seed=seed)
    flow = net.open_flow(0, 2, size, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert flow.rx_bytes == size
    assert flow.stats.dup_pkts_received == 0          # exactly once
    acks_dropped = net.fabric.switch_stats_sum("acks_dropped")
    assert flow.stats.timeouts <= acks_dropped        # never from data loss
    # conservation: every HO the sender saw produced one retransmission
    sender = net.transports[0]
    stats = sender.stats
    assert flow.stats.retx_pkts_sent >= stats.ho_received - stats.stale_ho


@_slow
@given(transport=st.sampled_from(["gbn", "irn", "rack_tlp", "timeout"]),
       loss=st.sampled_from([0.0, 0.01, 0.05]),
       seed=st.integers(0, 30))
def test_baseline_transports_deliver_exactly_once(transport, loss, seed):
    net = build_network(transport=transport, topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=loss,
                        lb="ecmp", seed=seed)
    flow = net.open_flow(0, 2, 50_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed, f"{transport} stuck at loss={loss} seed={seed}"
    assert flow.rx_bytes == 50_000


@_slow
@given(seed=st.integers(0, 40), fan=st.integers(2, 6))
def test_dcp_incast_never_wedges(seed, fan):
    net = build_network(transport="dcp", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ar", seed=seed, buffer_bytes=300_000)
    flows = [net.open_flow(s, 7, 40_000, 0) for s in range(fan)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    for f in flows:
        assert f.rx_bytes == 40_000


@_slow
@given(seed=st.integers(0, 40))
def test_dcp_ho_conservation(seed):
    """trims == turned + dropped-in-control-queue (+ none lost elsewhere)."""
    net = build_network(transport="dcp", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ar", seed=seed, buffer_bytes=300_000)
    flows = [net.open_flow(s, 7, 60_000, 0) for s in range(4)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    trims = net.fabric.switch_stats_sum("trimmed")
    ho_dropped = net.fabric.switch_stats_sum("ho_dropped")
    turned = sum(tr.stats.ho_turned for tr in net.transports)
    received = sum(tr.stats.ho_received for tr in net.transports)
    assert turned + ho_dropped >= trims
    assert received <= turned
