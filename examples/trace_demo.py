#!/usr/bin/env python3
"""Flight recorder demo: trace a lossy transfer and explain its FCT.

Runs two GBN flows over a single lossy cable with the span flight
recorder enabled, then shows the three views it gives you of the run:

1. its event markers (drops, retransmissions, timeouts);
2. the per-flow FCT breakdown — which nanoseconds went to queueing,
   holding the wire, propagation, host time, retransmission stalls;
3. a Perfetto/Chrome trace-event file you can load at
   https://ui.perfetto.dev (validated here with the schema checker).

Run:  python examples/trace_demo.py [out.json]
"""

import sys
import tempfile

from repro.analysis.latency import COMPONENTS
from repro.experiments.common import NetworkSpec
from repro.obs.schema import validate_perfetto
from repro.obs.spans import perfetto_trace, write_perfetto
from repro.runner.points import simulate_flows

SPEC = NetworkSpec(transport="gbn", topology="direct", num_hosts=2,
                   link_rate=10.0, loss_rate=0.02, seed=11)
FLOWS = [[0, 1, 60_000, 0], [1, 0, 30_000, 5_000]]


def main(out_path: str | None = None) -> None:
    payload = simulate_flows(SPEC, {
        "flows": FLOWS,
        "telemetry": {"spans": {"max_spans": 1_000_000}},
    })

    print(f"transport={SPEC.transport}  loss={SPEC.loss_rate:.0%}  "
          f"run={payload['end_ns'] / 1000:.1f} us  "
          f"events={payload['events']}\n")

    print("recovery events (drops, retransmissions, timer fires):")
    marks = payload["spans"]["marks"]
    for time_ns, kind, flow_id, actor, detail in marks[:12]:
        fields = " ".join(f"{k}={v}" for k, v in
                          {"flow": flow_id, **detail}.items())
        print(f"  {time_ns:>9} ns  {kind:<7} {actor:<12} {fields}")
    extra = len(marks) - 12
    if extra > 0:
        print(f"  ... {extra} more")

    print("\nwhere the time went (per flow, % of completion time):")
    for entry in payload["breakdown"]:
        fct = entry["fct_ns"]
        parts = "  ".join(
            f"{comp[:-3].replace('_stall', '')}={100 * entry[comp] / fct:.1f}%"
            for comp in COMPONENTS if entry[comp])
        print(f"  flow {entry['src']}->{entry['dst']}  "
              f"fct={fct / 1000:.1f} us  {parts}")
        total = sum(entry[comp] for comp in COMPONENTS)
        assert total == fct and entry["residual_ns"] == 0

    if out_path is None:
        out_path = tempfile.mktemp(prefix="trace_demo_", suffix=".json")
    points = {"trace_demo/run": payload["spans"]}
    with open(out_path, "w") as fh:
        events = write_perfetto(fh, points)
    problems = validate_perfetto(perfetto_trace(points))
    print(f"\nperfetto: {events} events -> {out_path} "
          f"(validated: {'OK' if not problems else problems})")
    print("open it at https://ui.perfetto.dev -- each flow is a track, "
          "packet lifecycle phases are nested slices, drops/retx/timeouts "
          "are instant markers")


if __name__ == "__main__":
    main(*sys.argv[1:2])
