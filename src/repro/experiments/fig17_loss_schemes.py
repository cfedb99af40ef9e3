"""Fig 17: loss-recovery efficiency across every registry transport.

Single long flow under ECMP with forced switch drops (trims for DCP).
Paper shape to preserve among the original four schemes: DCP stays
near line rate, RACK-TLP trails DCP (retransmission delayed one RTT),
IRN falls behind RACK-TLP as retransmitted-packet losses push it into
RTOs, and the timeout-only scheme collapses sharply with the loss
rate.  The sweep now covers the whole transport registry — the
reliability-scheme frontier adds SDR (selective repeat with per-hole
timers: loss costs retransmissions but no RTOs) and RIFL (hop-by-hop
link-layer retx: the end-to-end transport never sees the loss at all,
paying only hop round trips).

This experiment declares its (scheme x loss-rate) grid as sweep points,
so ``repro.runner`` can shard it across processes and cache each
goodput measurement by spec hash.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.presets import ScalePreset, get_preset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import TRANSPORTS, NetworkSpec
from repro.runner import ExperimentRunner, SweepPoint, serial_runner

LOSS_RATES = (0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05)
#: Every transport in the registry, so a newly registered scheme lands
#: in this comparison automatically (alphabetical: column order only).
SCHEMES = tuple(sorted(TRANSPORTS))

#: Point runner shared with other single/multi-flow sweeps.
POINT_RUNNER = "repro.runner.points.simulate_flows"


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (loss rate, scheme): a lone long flow's goodput."""
    points = []
    for loss in LOSS_RATES:
        for scheme in SCHEMES:
            spec = NetworkSpec(
                transport=scheme, topology="testbed",
                num_hosts=p.testbed_hosts, cross_links=p.testbed_cross_links,
                link_rate=p.link_rate, loss_rate=loss, lb="ecmp", seed=17,
                buffer_bytes=p.buffer_bytes)
            params = {
                "flows": [[0, p.testbed_hosts // 2, p.long_flow_bytes, 0]],
                "max_events": 120_000_000,
            }
            points.append(SweepPoint(f"{scheme}-loss{loss:g}", spec, params))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    """Fold ordered point payloads back into the paper's table."""
    result = ExperimentResult(
        "fig17", "Goodput (Gbps) vs loss rate per recovery scheme")
    it = iter(payloads)
    for loss in LOSS_RATES:
        row = {"loss_rate": f"{loss:.2%}"}
        for scheme in SCHEMES:
            row[f"{scheme}_gbps"] = next(it)["flows"][0]["goodput_gbps"]
        result.rows.append(row)
    result.notes = ("paper: DCP up to 22%/98%/99% above RACK-TLP/IRN/"
                    "timeout; timeout degrades sharply with loss")
    return result


def run(preset: str = "default",
        runner: Optional[ExperimentRunner] = None) -> ExperimentResult:
    p = get_preset(preset)
    runner = runner if runner is not None else serial_runner()
    payloads = runner.run_points("fig17", sweep(p), POINT_RUNNER)
    return merge(payloads, p)


def main() -> None:
    run().print_table()


if __name__ == "__main__":
    main()
