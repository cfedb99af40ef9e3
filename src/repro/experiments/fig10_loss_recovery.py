"""Fig 10: loss recovery efficiency — DCP vs CX5 goodput under forced loss.

One long flow crosses the testbed while the switch drops (CX5) or trims
(DCP) data packets at a configured rate, exactly as the paper drives
its P4 switch.  The claim: CX5's Go-Back-N goodput collapses as loss
grows (1.6x-72x worse than DCP between 0.01% and 5%).
"""

from __future__ import annotations

from repro.analysis.fct import goodput_cell
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

LOSS_RATES = (0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05)
SCHEMES = ("dcp", "gbn")     # gbn: the CX5's Go-Back-N


def long_flow_campaign(name: str, p: ScalePreset, schemes: tuple,
                       seed: int, max_events: int) -> dict:
    """One cross-switch long flow on the testbed per (loss rate, scheme)
    — the shape Fig 10 and Fig 17 share."""
    return {
        "name": name,
        # num_leaves/num_spines keep NetworkSpec's defaults (4): the
        # testbed has neither, but every field is hashed.
        "topology": {"topology": "testbed", "num_hosts": p.testbed_hosts,
                     "cross_links": p.testbed_cross_links, "lb": "ecmp",
                     "num_leaves": 4, "num_spines": 4},
        "workload": [{"kind": "flows", "name": "long", "flows": [
            [0, p.testbed_hosts // 2, p.long_flow_bytes, 0]]}],
        "groups": [
            {"name": "loss", "axis": "spec.loss_rate",
             "values": list(LOSS_RATES)},
            {"name": "scheme", "axis": "spec.transport",
             "values": list(schemes)},
        ],
        "sim": {"max_events": max_events},
        "seed": seed,
    }


def campaign(p: ScalePreset) -> dict:
    """One point per (loss rate, scheme): a cross-switch long flow."""
    return long_flow_campaign("fig10", p, SCHEMES, 11, 80_000_000)


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig10", f"Loss recovery efficiency at {p.link_rate:.0f} Gbps links")
    it = iter(payloads)
    for loss in LOSS_RATES:
        dcp, cx5 = goodput_cell(next(it)), goodput_cell(next(it))
        # A completed flow's goodput is positive; with one open, no ratio.
        ratio = "-" if str in (type(dcp), type(cx5)) else dcp / cx5
        result.rows.append({"loss_rate": f"{loss:.2%}", "dcp_gbps": dcp,
                            "cx5_gbps": cx5, "dcp_over_cx5": ratio})
    result.notes = "paper: DCP 1.6x (0.01%) to 72x (5%) over CX5"
    return result
