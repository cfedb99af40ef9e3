"""Fig 2: excessive RTOs in IRN vs none in DCP.

WebSearch background (load 0.3) plus N-to-1 incast (load 0.1) on a
lossy CLOS with buffers small enough that the incast actually drops
packets.  IRN times out on tail/retransmitted losses (more under AR,
which adds spurious-retransmission load); DCP recovers every loss via
HO packets and hits zero timeouts.
"""

from __future__ import annotations

from repro.analysis.fct import switch_total
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

CONFIGS = (("irn", "ecmp"), ("irn", "ar"), ("dcp", "ar"))

SEED = 51


def campaign(p: ScalePreset) -> dict:
    """One point per (scheme, load balancer).  The merge splits timeouts
    by flow tag, which is the layer name: ``bg`` or ``incast``."""
    return {
        "name": "fig2",
        # deliberately tight buffers so the incast causes real loss
        "topology": {"buffer_bytes": p.buffer_bytes // 4},
        "workload": [
            {"kind": "poisson", "name": "bg", "load": 0.3, "seed": SEED},
            {"kind": "incast", "name": "incast", "load": 0.1,
             "seed": SEED + 1},
        ],
        "groups": [{"name": "scheme", "axes": ["spec.transport", "spec.lb"],
                    "values": [list(c) for c in CONFIGS]}],
        "sim": {"max_events": 150_000_000},
        "seed": SEED,
    }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig2", "RTO counts under WebSearch 0.3 + incast 0.1 (lossy CLOS)")
    for (scheme, lb), payload in zip(CONFIGS, payloads):
        flows = payload["flows"]
        result.rows.append({
            "scheme": f"{scheme}-{lb}",
            "bg_timeouts": sum(f["timeouts"] for f in flows
                               if f["tag"] == "bg"),
            "incast_timeouts": sum(f["timeouts"] for f in flows
                                   if f["tag"] == "incast"),
            "drops": (switch_total(payload, "dropped_congestion")
                      + switch_total(payload, "dropped_buffer")),
            "trims": switch_total(payload, "trimmed"),
            "retx_pkts": sum(f["retx_pkts"] for f in flows),
            "incomplete": sum(1 for f in flows if not f["completed"]),
        })
    result.notes = ("paper: IRN suffers timeouts in both flow classes, "
                    "IRN-AR more than IRN-ECMP; DCP: zero")
    return result
