#!/usr/bin/env python3
"""Quickstart: run DCP traffic over a CLOS fabric and read the results.

Builds a 16-host leaf-spine network with DCP-Switches (packet trimming
+ WRR lossless control plane) and DCP-RNICs, opens a handful of flows,
and prints per-flow completion statistics plus switch-side trimming
counters.

Run:  python examples/quickstart.py [--jobs N] [--cache-dir DIR]

With ``--jobs`` the script finishes with a small loss-rate sweep pushed
through the parallel experiment runner (``repro.runner``): each sweep
point is hashed, simulated in a worker process and cached on disk, so a
second invocation replays instantly from cache.
"""

import argparse

from repro.experiments.common import NetworkSpec, build_network
from repro.obs import spans
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner, SweepPoint


def main() -> None:
    # A 2-leaf/2-spine CLOS, 10 Gbps links, adaptive routing, DCP.
    net = build_network(
        transport="dcp",        # the paper's transport
        lb="ar",                # packet-level adaptive routing
        topology="clos",
        num_hosts=16, num_leaves=2, num_spines=2,
        link_rate=10.0,         # Gbps
        seed=42,
    )

    # Open a few flows: an elephant, some mice, and a 4-to-1 incast.
    elephant = net.open_flow(src=0, dst=9, size_bytes=4_000_000, start_ns=0)
    mice = [net.open_flow(src=i, dst=15 - i, size_bytes=20_000,
                          start_ns=50_000 * i) for i in range(1, 5)]
    incast = [net.open_flow(src=s, dst=8, size_bytes=200_000, start_ns=100_000)
              for s in (10, 11, 12, 13)]

    net.run_until_flows_done()

    print(f"{'flow':>6} {'size':>10} {'FCT (us)':>10} {'slowdown':>9} "
          f"{'retx':>5} {'trims':>6} {'timeouts':>8}")
    for flow, slowdown in net.slowdowns():
        print(f"{flow.flow_id:>6} {flow.size_bytes:>10} "
              f"{flow.fct_ns() / 1000:>10.1f} {slowdown:>9.2f} "
              f"{flow.stats.retx_pkts_sent:>5} {flow.stats.trims_seen:>6} "
              f"{flow.stats.timeouts:>8}")

    trims = net.fabric.switch_stats_sum("trimmed")
    drops = (net.fabric.switch_stats_sum("dropped_congestion")
             + net.fabric.switch_stats_sum("dropped_buffer"))
    ho_lost = net.fabric.switch_stats_sum("ho_dropped")
    print(f"\nswitch summary: {trims} packets trimmed, {drops} dropped, "
          f"{ho_lost} HO packets lost")
    print("every lost payload was recovered by a header-only round trip — "
          "no RTOs, no spurious retransmissions.")


def sweep_demo(jobs: int, cache_dir: str | None) -> None:
    """Run a 4-point loss sweep through the parallel runner."""
    loss_rates = (0.0, 0.005, 0.01, 0.02)
    points = [
        SweepPoint(
            f"loss{loss:g}",
            NetworkSpec(transport="dcp", lb="ar", topology="clos",
                        num_hosts=16, num_leaves=2, num_spines=2,
                        link_rate=10.0, seed=42, loss_rate=loss),
            {"flows": [[0, 9, 1_000_000, 0]]})
        for loss in loss_rates
    ]
    runner = ExperimentRunner(jobs=jobs, cache=ResultCache(root=cache_dir))
    payloads = runner.run_points("quickstart", points)
    print(f"\nloss sweep via repro.runner ({jobs} jobs):")
    print(f"{'loss':>6} {'FCT (us)':>10} {'goodput (Gbps)':>15} {'retx':>5}")
    for loss, payload in zip(loss_rates, payloads):
        rec = payload["flows"][0]
        print(f"{loss:>6.1%} {rec['fct_ns'] / 1000:>10.1f} "
              f"{rec['goodput_gbps']:>15.2f} {rec['retx_pkts']:>5}")
    print(f"simulations executed: {runner.simulations_executed} "
          f"(re-run to see them served from {runner.cache.root})")


def trace_demo() -> None:
    """Record a lossy transfer and show the timeline around a retransmit.

    IRN over a direct 2-host cable with 2% injected loss: every dropped
    data packet surfaces in the flight recorder as a ``drop`` marker,
    followed by the selective retransmission (``retx``) that repairs it.
    """
    tracker = spans.SpanTracker()
    spans.install(tracker)
    try:
        net = build_network(transport="irn", topology="direct", num_hosts=2,
                            link_rate=10.0, loss_rate=0.02, seed=7)
        flow = net.open_flow(src=0, dst=1, size_bytes=500_000, start_ns=0)
        net.run_until_flows_done()
    finally:
        spans.install(None)

    timeline = [m for m in tracker.marks if m[2] == flow.flow_id]
    kinds = [m[1] for m in timeline]
    print(f"\ntrace demo: IRN over a lossy cable, 2% loss — "
          f"{len(timeline)} markers ({kinds.count('drop')} drops, "
          f"{kinds.count('retx')} retx), FCT {flow.fct_ns() / 1000:.1f} us")
    if "retx" in kinds:
        idx = kinds.index("retx")
        print(f"timeline around the first retransmission "
              f"(t={timeline[idx][0]} ns):")
        for i in range(max(0, idx - 3), min(len(timeline), idx + 3)):
            time_ns, kind, _flow, actor, detail = timeline[i]
            fields = " ".join(f"{k}={v}" for k, v in detail.items())
            line = f"  {time_ns:>9} ns  {kind:<6} {actor:<14} {fields}"
            print(line.rstrip() + (" <-- first retx" if i == idx else ""))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="also run the sweep demo on N worker processes")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location for the sweep demo")
    args = parser.parse_args()
    main()
    trace_demo()
    if args.jobs:
        sweep_demo(args.jobs, args.cache_dir)
