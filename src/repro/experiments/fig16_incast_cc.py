"""Fig 16: high-load incast with and without congestion control.

WebSearch 0.5 plus N-to-1 incast at 5% load.  Without CC, DCP wins P50
but loses P99 — HO storms under extreme incast trigger retransmission
bursts that feed the congestion (the paper's own observation).  With
DCQCN integrated, DCP posts the best P99 as well (paper: ~31%/29%
below MP-RDMA/IRN).  MP-RDMA always runs its native adaptive window.
"""

from __future__ import annotations

from repro.analysis.fct import (incomplete_note, overall_percentiles,
                                slowdowns, switch_total)
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

SCHEMES = (("irn", "ar"), ("mp_rdma", "ecmp"), ("dcp", "ar"))
CCS = ("none", "dcqcn")

SEED = 101

#: The distinct simulations as ``[cc, transport, lb]``.  MP-RDMA keeps
#: its native window whatever the CC column says, so it runs once
#: (under "none") and both its rows read that point.
RUNS = [[cc, t, lb] for cc in CCS for t, lb in SCHEMES
        if cc == "none" or t != "mp_rdma"]


def campaign(p: ScalePreset) -> dict:
    """One point per distinct (CC, scheme)."""
    return {
        "name": "fig16",
        "topology": {"buffer_bytes": p.buffer_bytes // 2},
        "workload": [
            {"kind": "poisson", "name": "bg", "load": 0.5, "seed": SEED},
            {"kind": "incast", "name": "incast", "load": 0.05,
             "seed": SEED + 1},
        ],
        "groups": [{"name": "run",
                    "axes": ["spec.cc", "spec.transport", "spec.lb"],
                    "values": RUNS}],
        "sim": {"max_events": 250_000_000},
        "seed": SEED,
    }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig16", "Incast + WebSearch 0.5: P50/P99 slowdown w/ and w/o CC")
    by_run = {tuple(run): payload for run, payload in zip(RUNS, payloads)}
    for cc in CCS:
        for transport, lb in SCHEMES:
            payload = by_run.get((cc, transport, lb),
                                 by_run["none", transport, lb])
            sds = slowdowns(payload)
            stats = overall_percentiles(sds)
            result.rows.append({
                "cc": cc,
                "scheme": transport,
                "flows": len(sds),
                # Percentiles of survivors: say so if a flow is open.
                "p50": incomplete_note(payload) or stats["p50"],
                "p99": stats["p99"],
                "timeouts": sum(f["timeouts"] for f in payload["flows"]),
                "trims": switch_total(payload, "trimmed"),
            })
    result.notes = ("paper: DCP best P50 always; worst P99 w/o CC, best P99 "
                    "with DCQCN")
    return result
