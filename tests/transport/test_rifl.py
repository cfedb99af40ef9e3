"""Behavioral tests for RIFL: hop-level repair, loss-free end to end.

The contract under test: with every link wrapped by a
:class:`~repro.net.rifl.RiflShim`, the end-to-end transport never
observes loss — corruption is repaired at the hop (``hop_retx``), down
links hold frames instead of dropping them, and the RTO retained from
:class:`~repro.rnic.timeout.TimeoutTransport` is a crash fallback that
must never fire from wire corruption.
"""

from __future__ import annotations

from repro.experiments.common import build_network


def _shims(net):
    return net.fabric.rifl_shims


def test_clean_transfer():
    net = build_network(transport="rifl", topology="direct", num_hosts=2,
                        link_rate=10.0, seed=71)
    flow = net.open_flow(0, 1, 100_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0
    assert sum(s.stats.hop_retx for s in _shims(net)) == 0
    assert sum(s.stats.delivered for s in _shims(net)) > 0


def test_corruption_repaired_at_hop_never_end_to_end():
    """5% forced loss: hop retransmissions absorb all of it — zero
    end-to-end retransmissions, zero RTOs, zero fabric drops."""
    net = build_network(transport="rifl", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.05,
                        lb="ecmp", seed=72)
    flows = [net.open_flow(0, 2, 150_000, 0), net.open_flow(1, 3, 150_000, 0)]
    net.run_until_flows_done(max_events=60_000_000)
    for flow in flows:
        assert flow.completed
        assert flow.rx_bytes == flow.size_bytes
        assert flow.stats.retx_pkts_sent == 0     # e2e never repairs
        assert flow.stats.timeouts == 0           # RTO never fires
    assert sum(s.stats.hop_retx for s in _shims(net)) > 0
    # The loss moved into the shims: neither links nor switches drop.
    assert sum(s.link.stats.dropped_loss for s in _shims(net)) == 0
    assert net.fabric.switch_stats_sum("dropped_forced") == 0


def test_down_link_holds_frames_instead_of_dropping():
    """A dark cable buffers the hop sender's frames; when it returns the
    backlog flushes and the flow finishes with no e2e timeout."""
    net = build_network(transport="rifl", topology="direct", num_hosts=2,
                        link_rate=10.0, seed=73)
    flow = net.open_flow(0, 1, 200_000, 0)
    link = net.hosts[0].nic.link

    def down() -> None:
        link.up = False

    def up() -> None:
        link.up = True

    net.sim.schedule(50_000, down)
    net.sim.schedule(550_000, up)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.rx_bytes == 200_000
    held = sum(s.stats.held_link_down for s in _shims(net))
    assert held > 0
    # The shim intercepts delivery before the link's own down check, so
    # nothing is ever discarded as link_down under RIFL.
    assert sum(s.link.stats.dropped_link_down for s in _shims(net)) == 0
