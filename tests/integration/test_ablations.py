"""Ablations of DCP's design choices (DESIGN.md, marked †).

These are not paper figures; they check the design points §4.3/§4.5
argue for:

* batched RetransQ fetch vs the naive per-HO fetch strawman;
* the WRR weight rule vs an undersized control queue share;
* bitmap-free counters vs a linked chunk (processing-cost view).
"""

from repro.analysis.fct import goodput_gbps
from repro.analysis.models import tracking_access_cycles
from repro.experiments.common import build_network


def _recovery_goodput(naive: bool) -> float:
    net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.05,
                        lb="ecmp", seed=77,
                        transport_overrides={"dcp_naive_retrans": naive,
                                             "pcie_rtt_ns": 1_000})
    flow = net.open_flow(0, 2, 1_000_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    return goodput_gbps(flow)


def test_ablation_retransq_batching():
    """§4.3 challenge #1: per-HO fetching throttles loss recovery."""
    # the strawman pays 2 PCIe RTTs per retransmitted packet
    assert _recovery_goodput(naive=False) >= _recovery_goodput(naive=True)


def _ho_drops(weight_override):
    net = build_network(transport="dcp", topology="clos", num_hosts=16,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ar", seed=78, buffer_bytes=400_000,
                        control_queue_bytes=20_000)
    if weight_override is not None:
        for sw in net.fabric.switches:
            for port in sw.ports:
                port.scheduler.weights[1] = weight_override
    flows = [net.open_flow(s, 0, 60_000, 0) for s in range(1, 13)]
    net.run_until_flows_done(max_events=60_000_000)
    assert all(f.completed for f in flows)
    return (net.fabric.switch_stats_sum("ho_dropped"),
            net.fabric.switch_stats_sum("ho_enqueued"))


def test_ablation_wrr_weight():
    """An undersized control-queue weight loses HO packets under incast;
    the §4.2 weight does not."""
    good_drop, good_total = _ho_drops(None)
    bad_drop, _ = _ho_drops(0.05)
    assert good_total > 0
    assert good_drop <= bad_drop  # the formula weight is never worse


def test_ablation_tracking_cost():
    """Bitmap-free counting does constant work per packet while the
    linked chunk's cost grows with OOO degree: the per-packet cycles
    behind Fig 7."""
    # interleave two far-apart PSN ranges: high OOO degree
    psns = [p for pair in zip(range(0, 400), range(400, 800)) for p in pair]
    frontier = counter_cost = chunk_cost = 0
    for psn in psns:
        counter_cost += tracking_access_cycles("dcp", psn - frontier)
        chunk_cost += tracking_access_cycles("linked_chunk", psn - frontier)
        if psn == frontier:
            frontier += 1
    assert counter_cost == 2 * len(psns)
    assert counter_cost < chunk_cost
    assert [tracking_access_cycles("linked_chunk", d)
            for d in (0, 127, 128, 512)] == [2, 2, 3, 6]
