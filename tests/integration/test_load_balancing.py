"""Integration: load-balancing schemes compared end-to-end (§8)."""

from repro.analysis.fct import goodput_gbps
from repro.experiments.common import build_network


def _single_flow_goodput(lb: str, transport: str = "dcp",
                         size: int = 800_000) -> tuple[float, list[int]]:
    net = build_network(transport=transport, topology="testbed", num_hosts=4,
                        cross_links=4, link_rate=10.0, lb=lb, seed=19,
                        cc="window", window_bytes=120_000)
    flow = net.open_flow(0, 2, size, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed, lb
    sw1 = net.fabric.switches[0]
    cross_tx = [sw1.ports[2 + c].link.stats.delivered_packets
                for c in range(4)]
    return goodput_gbps(flow), cross_tx


def test_spray_uses_all_paths():
    _g, cross_tx = _single_flow_goodput("spray")
    used = sum(1 for t in cross_tx if t > 50)
    assert used == 4, f"spray used only {used} paths: {cross_tx}"


def test_ar_spreads_under_contention():
    """AR follows queue depth: with cross links slower than the source,
    queues build and packets fan out; with idle equal paths it correctly
    stays put (no gratuitous reordering)."""
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=4, link_rate=10.0, lb="ar", seed=19,
                        cc="window", window_bytes=120_000,
                        cross_port_rates={i: 3.0 for i in range(4)})
    flow = net.open_flow(0, 2, 800_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    cross_tx = [sw1.ports[2 + c].link.stats.delivered_packets
                for c in range(4)]
    used = sum(1 for t in cross_tx if t > 50)
    assert used >= 3, f"ar used only {used} paths: {cross_tx}"
    # uncongested case: one path, deterministically
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
