#!/usr/bin/env python3
"""Hybrid fidelity at scale: a 256-host AI collective in under a second.

The packet-level simulator models every byte; that fidelity costs wall
time that grows with hosts x bandwidth.  The hybrid tier
(``fidelity="hybrid"``, :mod:`repro.sim.fidelity`) runs uncontended
flows through a closed-form fluid model and escalates a flow to
packet-level the moment any falsifier fires — contention on a shared
port, queue buildup, ECN, PFC pauses, injected loss, chaos.  On a
fig14-style collective (one Ring-AllReduce per leaf) nothing ever
contends, so the whole 256-host job runs analytically: each of its
3 584 flows costs two scheduler events, its launch and its completion.

Run:  PYTHONPATH=src python examples/scale_demo.py
"""

import time

from repro.experiments.spec import NetworkSpec
from repro.runner.points import simulate_flows
from repro.workload.collective import collective_rows, group_jcts

HOSTS = 256
HOSTS_PER_LEAF = 8
TOTAL_BYTES = 400_000  # per collective (scaled from the paper's 300 MB)


def main() -> None:
    leaves = HOSTS // HOSTS_PER_LEAF
    print(f"{HOSTS} hosts, {leaves} leaves, one Ring-AllReduce per leaf "
          f"({TOTAL_BYTES // 1000} KB each)\n")
    print(f"{'fidelity':>8} {'wall':>8} {'events':>9} {'mean JCT':>10} "
          f"{'max JCT':>10}")
    rows = collective_rows(
        "allreduce", [range(g * HOSTS_PER_LEAF, (g + 1) * HOSTS_PER_LEAF)
                      for g in range(leaves)], TOTAL_BYTES)
    spec = NetworkSpec(
        transport="dcp", lb="ar", topology="clos",
        num_hosts=HOSTS, num_leaves=leaves, num_spines=leaves // 2,
        link_rate=10.0, seed=73, fidelity="hybrid")
    t0 = time.perf_counter()
    payload = simulate_flows(spec, {"flows": rows,
                                    "max_events": 400_000_000})
    wall = time.perf_counter() - t0
    jcts = [jct / 1e6 for jct in group_jcts(payload["flows"])]
    print(f"{spec.fidelity:>8} {wall:>7.2f}s {payload['events']:>9} "
          f"{sum(jcts) / len(jcts):>9.3f}ms {max(jcts):>9.3f}ms")

    summary = payload["fluid"]
    print(f"\nfidelity controller: {summary['fluid_flows']} flows ran fluid, "
          f"{summary['packet_flows']} packet-level, "
          f"{summary['escalations']} escalations")
    print(f"decision reasons: {summary['reasons']}")
    escalated = [e for e in summary["log"] if e["action"] != "fluid"]
    if escalated:
        print("non-fluid decisions (first entries):")
        for entry in escalated[:5]:
            print(f"  {entry}")
    else:
        print("no escalations: every ring stays inside its leaf, so no two "
              "flows ever\nshare an egress port.  The fluid schedule is "
              "still not the packet one:\nits mean JCT reads 1.05 % below "
              "a packet run of the same job\n(`dcp-experiment scale "
              "--preset quick`: 0.6413 vs 0.6481 ms), because the\npacket "
              "run carries window occupancy across ring steps on reused "
              "QPs.")

    print(f"\nA packet-level run of the same job costs ~{HOSTS // 8}x more "
          f"events per host\ngroup; `dcp-experiment scale` tabulates events "
          f"per cell, and\n`python3 -m bench --workload hybrid256` measures "
          f"the wall time.")


if __name__ == "__main__":
    main()
