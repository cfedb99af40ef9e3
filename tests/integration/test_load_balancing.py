"""Integration: load-balancing schemes compared end-to-end (§8)."""

from repro.analysis.fct import goodput_gbps
from repro.experiments.common import build_network


def _single_flow_goodput(lb: str, transport: str = "dcp",
                         size: int = 800_000,
                         cross_rate: float | None = None
                         ) -> tuple[float, list[int]]:
    rates = None if cross_rate is None else {i: cross_rate for i in range(4)}
    net = build_network(transport=transport, topology="testbed", num_hosts=4,
                        cross_links=4, link_rate=10.0, lb=lb, seed=19,
                        cc="window", window_bytes=120_000,
                        cross_port_rates=rates)
    flow = net.open_flow(0, 2, size, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed, lb
    sw1 = net.fabric.switches[0]
    cross_tx = [sw1.ports[2 + c].link.stats.delivered_packets
                for c in range(4)]
    return goodput_gbps(flow), cross_tx


def test_spray_uses_all_paths():
    """Per-packet load balancing reaches every path: AR over cross links
    slower than the source sprays the flow across all four."""
    _g, cross_tx = _single_flow_goodput("ar", cross_rate=3.0)
    used = sum(1 for t in cross_tx if t > 50)
    assert used == 4, f"ar used only {used} paths: {cross_tx}"


def test_ar_spreads_under_contention():
    """AR follows queue depth, so it spreads only under contention (the
    contended case is test_spray_uses_all_paths): with idle equal paths
    it stays put (no gratuitous reordering)."""
    _g, idle_tx = _single_flow_goodput("ar")
    assert sum(1 for t in idle_tx if t > 50) == 1


def test_flow_level_lbs_stick_to_one_path():
    _g, cross_tx = _single_flow_goodput("ecmp")
    used = sum(1 for t in cross_tx if t > 50)
    assert used == 1, f"ecmp spread over {used} paths: {cross_tx}"


def test_ecmp_collision_hurts_where_ar_does_not():
    """Two flows, two cross links: a colliding ECMP hash halves goodput;
    AR always balances.  (Statistically, some seed collides.)"""
    collided_seed = None
    for seed in range(20):
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0, lb="ecmp",
                            seed=seed, cc="window")
        f1 = net.open_flow(0, 2, 400_000, 0)
        f2 = net.open_flow(1, 3, 400_000, 0)
        net.run_until_flows_done(max_events=30_000_000)
        total = goodput_gbps(f1) + goodput_gbps(f2)
        if total < 13.0:  # both flows squeezed through one 10G link
            collided_seed = seed
            break
    assert collided_seed is not None, "no ECMP collision in 20 seeds?!"

    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=2, link_rate=10.0, lb="ar",
                        seed=collided_seed, cc="window")
    f1 = net.open_flow(0, 2, 400_000, 0)
    f2 = net.open_flow(1, 3, 400_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert goodput_gbps(f1) + goodput_gbps(f2) > 13.0
