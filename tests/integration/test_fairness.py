"""Fairness: QP scheduling and bandwidth sharing."""

import pytest

from repro.analysis.fct import goodput_gbps, jain_fairness
from repro.experiments.common import build_network


class TestJain:
    def test_perfect(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_hog(self):
        assert jain_fairness([9, 0, 0]) == pytest.approx(1 / 3)

    def test_bounds(self):
        vals = [1, 2, 3, 4]
        assert 1 / len(vals) <= jain_fairness(vals) <= 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_all_zero(self):
        assert jain_fairness([0, 0]) == 1.0


class TestQpSchedulerFairness:
    def test_concurrent_qps_share_the_nic(self):
        """The DRR QP scheduler (ROUND_QUOTA_BYTES) splits one NIC evenly."""
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0, lb="ar", seed=7,
                            window_bytes=200_000)
        # one sender, two receivers: both flows leave through host 0's NIC
        flows = [net.open_flow(0, 2, 500_000, 0),
                 net.open_flow(0, 3, 500_000, 0)]
        net.run_until_flows_done(max_events=30_000_000)
        assert all(f.completed for f in flows)
        fcts = [f.fct_ns() for f in flows]
        # fair sharing: both finish within ~15% of each other
        assert max(fcts) / min(fcts) < 1.15

    def test_incast_receivers_share_fairly(self):
        """Four equal senders into one port finish near-simultaneously."""
        net = build_network(transport="dcp", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0,
                            lb="ar", seed=7, buffer_bytes=1_000_000)
        flows = [net.open_flow(s, 7, 150_000, 0) for s in (0, 1, 2, 3)]
        net.run_until_flows_done(max_events=30_000_000)
        assert all(f.completed for f in flows)
        goodputs = [goodput_gbps(f) for f in flows]
        assert jain_fairness(goodputs) > 0.9

    def test_short_flow_not_starved_by_elephant(self):
        """A mouse posted mid-elephant finishes promptly (DRR quota)."""
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0, lb="ar", seed=7,
                            window_bytes=200_000)
        elephant = net.open_flow(0, 2, 3_000_000, 0)
        mouse = net.open_flow(0, 3, 20_000, 200_000)
        net.run_until_flows_done(max_events=30_000_000)
        assert mouse.completed and elephant.completed
        # the mouse's FCT is bounded by ~2x its fair-share time, far
        # below the elephant's multi-ms occupation of the NIC
        assert mouse.fct_ns() < elephant.fct_ns() / 5
