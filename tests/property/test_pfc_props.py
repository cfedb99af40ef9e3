"""Property tests: PFC losslessness under random traffic patterns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_network

_slow = settings(max_examples=10, deadline=None)


@_slow
@given(seed=st.integers(0, 30), fan=st.integers(2, 5),
       size=st.integers(20_000, 150_000))
def test_pfc_fabric_never_drops(seed, fan, size):
    """Any incast over a PFC fabric with big windows must be lossless."""
    net = build_network(transport="gbn", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ecmp", seed=seed, buffer_bytes=400_000,
                        window_bytes=60_000)
    flows = [net.open_flow(s, 7, size, 0) for s in range(fan)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("dropped_congestion") == 0
    assert net.fabric.switch_stats_sum("dropped_buffer") == 0
    assert all(f.stats.retx_pkts_sent == 0 for f in flows)


@_slow
@given(seed=st.integers(0, 30))
def test_pfc_pause_resume_balanced(seed):
    """Every PAUSE is eventually matched by a RESUME once traffic drains."""
    net = build_network(transport="gbn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, lb="ecmp", seed=seed,
                        buffer_bytes=120_000, window_bytes=80_000)
    flows = [net.open_flow(0, 2, 300_000, 0), net.open_flow(1, 3, 300_000, 0)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    for sw in net.fabric.switches:
        assert sw.pfc.stats.pause_frames == sw.pfc.stats.resume_frames
        assert all(b == 0 for b in sw.pfc.ingress_bytes)
        assert not any(sw.pfc.pause_sent)


@_slow
@given(seed=st.integers(0, 20), fan=st.integers(2, 4))
def test_mp_rdma_over_pfc_lossless(seed, fan):
    net = build_network(transport="mp_rdma", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ecmp", seed=seed, buffer_bytes=400_000)
    flows = [net.open_flow(s, 7, 80_000, 0) for s in range(fan)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("dropped_congestion") == 0
