#!/usr/bin/env python3
"""AI training collectives: Ring-AllReduce under DCP vs IRN vs PFC.

LLM-training traffic is the paper's flagship use case for packet-level
load balancing (§1): collectives are synchronized, so one slow flow
drags the whole job.  This example runs four concurrent Ring-AllReduce
groups on a CLOS fabric and compares job completion times.

Run:  python examples/ai_collectives.py
"""

from repro.experiments.spec import NetworkSpec
from repro.runner.points import simulate_flows
from repro.workload.collective import collective_rows, group_jcts

GROUPS = 4
GROUP_SIZE = 4
TOTAL_BYTES = 1_000_000  # per collective (scaled from the paper's 300 MB)

SCHEMES = [
    ("dcp", "ar", "DCP + adaptive routing"),
    ("irn", "ar", "IRN + adaptive routing"),
    ("gbn", "ecmp", "PFC (GBN) + ECMP"),
]


def main() -> None:
    print(f"{GROUPS} groups x {GROUP_SIZE} hosts, Ring-AllReduce of "
          f"{TOTAL_BYTES // 1000} KB per group\n")
    print(f"{'scheme':>24} {'mean JCT':>10} {'max JCT':>10} "
          f"{'timeouts':>8} {'retx':>6}")
    # One row per ring step; a step after the first names the row whose
    # receive completion starts it.
    rows = collective_rows(
        "allreduce", [range(g * GROUP_SIZE, (g + 1) * GROUP_SIZE)
                      for g in range(GROUPS)], TOTAL_BYTES)
    for transport, lb, label in SCHEMES:
        spec = NetworkSpec(
            transport=transport, lb=lb, topology="clos",
            num_hosts=GROUPS * GROUP_SIZE, num_leaves=2, num_spines=2,
            link_rate=10.0, seed=13)
        flows = simulate_flows(spec, {"flows": rows,
                                      "max_events": 60_000_000})["flows"]
        jcts = [jct / 1e6 for jct in group_jcts(flows)]
        timeouts = sum(f["timeouts"] for f in flows)
        retx = sum(f["retx_pkts"] for f in flows)
        print(f"{label:>24} {sum(jcts) / len(jcts):>9.2f}ms "
              f"{max(jcts):>9.2f}ms {timeouts:>8} {retx:>6}")

    print("\nAI workloads are synchronized: the group finishes with its "
          "slowest flow, so the\ntransport with the best *tail* behaviour "
          "wins the job (paper Fig 14).")


if __name__ == "__main__":
    main()
