"""Fig 10: loss recovery efficiency — DCP vs CX5 goodput under forced loss.

One long flow crosses the testbed while the switch drops (CX5) or trims
(DCP) data packets at a configured rate, exactly as the paper drives
its P4 switch.  The claim: CX5's Go-Back-N goodput collapses as loss
grows (1.6x-72x worse than DCP between 0.01% and 5%).
"""

from __future__ import annotations

from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint

LOSS_RATES = (0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05)
SCHEMES = ("dcp", "gbn")     # gbn: the CX5's Go-Back-N

POINT_RUNNER = "repro.runner.points.simulate_flows"


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (loss rate, scheme): a cross-switch long flow."""
    points = []
    for loss in LOSS_RATES:
        for scheme in SCHEMES:
            spec = NetworkSpec(
                transport=scheme, topology="testbed",
                num_hosts=p.testbed_hosts, cross_links=p.testbed_cross_links,
                link_rate=p.link_rate, loss_rate=loss, lb="ecmp", seed=11,
                buffer_bytes=p.buffer_bytes)
            flow = [0, p.testbed_hosts // 2, p.long_flow_bytes, 0, "long"]
            points.append(SweepPoint(f"{scheme}-loss{loss:g}", spec,
                                     {"flows": [flow],
                                      "max_events": 80_000_000}))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig10", f"Loss recovery efficiency at {p.link_rate:.0f} Gbps links")
    it = iter(payloads)
    for loss in LOSS_RATES:
        # goodput_gbps is 0.0 for a flow that did not complete
        dcp = next(it)["flows"][0]["goodput_gbps"]
        cx5 = next(it)["flows"][0]["goodput_gbps"]
        result.rows.append({
            "loss_rate": f"{loss:.2%}",
            "dcp_gbps": dcp,
            "cx5_gbps": cx5,
            "dcp_over_cx5": dcp / cx5 if cx5 > 0 else float("inf"),
        })
    result.notes = "paper: DCP 1.6x (0.01%) to 72x (5%) over CX5"
    return result
