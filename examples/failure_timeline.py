#!/usr/bin/env python3
"""Failure timeline: watch a transport ride out a link flap.

Runs two flows across the two-switch testbed while the chaos layer
flaps the only inter-switch cable (down at 100 us for 150 us), then
prints the injection/recovery timeline, each flow's delivery progress
as a strip chart, and the recovery metrics the robustness experiment
reports — all derived from the same JSON-safe point payload the sweep
caches.

Run:  python examples/failure_timeline.py [transport]
"""

import sys

from repro.experiments.registry import REGISTRY
from repro.runner.points import simulate_flows

CHART_WIDTH = 64


def strip_chart(times_ns, values, size_bytes, end_ns) -> str:
    """Delivery progress over time: '#' while bytes land, '.' stalled."""
    if not times_ns:
        return ""
    cells = []
    prev = 0.0
    for b in range(CHART_WIDTH):
        t = end_ns * (b + 1) / CHART_WIDTH
        # value at the latest sample <= t
        v = prev
        for st, sv in zip(times_ns, values):
            if st > t:
                break
            v = sv
        if v >= size_bytes:
            cells.append("|")      # completed
            break
        cells.append("#" if v > prev else ".")
        prev = v
    return "".join(cells)


def main(transport: str = "dcp") -> None:
    # The robustness sweep's own quick point for this cell.
    (point,) = [p for p in REGISTRY["robustness"].points(
                    "quick", chaos="link_flap")
                if p.spec.transport == transport]
    payload = simulate_flows(point.spec, point.params)
    chaos = payload["chaos"]
    end_ns = payload["end_ns"]

    print(f"transport={transport}  scenario={chaos['scenario']}  "
          f"run={end_ns / 1000:.0f} us\n")
    print("timeline:")
    for e in chaos["events"]:
        recover = (f"recover @ {e['recover_at_ns'] / 1000:.0f} us"
                   if e["recover_at_ns"] is not None else "permanent")
        print(f"  {e['fail_at_ns'] / 1000:>7.0f} us  {e['kind']:<10s} "
              f"{e['target']:<12s} {recover}")
    for name, down in chaos["downtime_ns"].items():
        print(f"  link {name}: down {down / 1000:.0f} us total")

    print(f"\ndelivery ('#' progress, '.' stall, '|' done; "
          f"{end_ns / 1000 / CHART_WIDTH:.0f} us per cell):")
    fail_cell = int(chaos["first_fail_at_ns"] / end_ns * CHART_WIDTH)
    print(" " * (8 + fail_cell) + "v fail injected")
    for rec, flow in zip(chaos["recovery"], payload["flows"]):
        series_key = f"chaos.flow.{rec['flow']}.rx_bytes"
        series = payload["metrics"]["series"][series_key]
        chart = strip_chart(series["times_ns"], series["values"],
                            flow["size_bytes"], end_ns)
        print(f"  flow {rec['flow']}  {chart}")
        print(f"          stalled {rec['stall_ns'] / 1000:.0f} us, "
              f"recovered {rec['recovery_ns'] / 1000:.0f} us after the "
              f"failure, completed={rec['completed']}")

    print(f"\nrecovery:   {chaos['recovery_ns'] / 1000:.0f} us "
          f"(worst flow, injection -> delivery resumes)")
    print(f"retx storm: {chaos['retx_storm_pkts']} packets, "
          f"{chaos['dup_pkts']} duplicates discarded, "
          f"{chaos['timeouts']} timeouts "
          f"({chaos['coarse_timeouts']} coarse)")
    completed = all(f["completed"] for f in payload["flows"])
    print(f"exactly-once delivery held: {completed} "
          f"(every byte delivered once, duplicates dropped at the RNIC)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
