"""Fig 13: FCT slowdown under the WebSearch workload (loads 0.3 / 0.5).

The paper's headline general-workload comparison: PFC(+ECMP), IRN(+AR),
MP-RDMA and DCP(+AR) on a two-layer CLOS.  Reports P50/P95 slowdown per
flow-size bin plus overall percentiles.  The shape to preserve: the
fine-grained LB schemes beat PFC+ECMP, and DCP posts the lowest tail
slowdown among them (paper: 5-16% under IRN/MP-RDMA tails).
"""

from __future__ import annotations

from repro.analysis.fct import (incomplete_note, overall_percentiles,
                                slowdown_bins, slowdowns)
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

#: (row label, transport, load balancer) — the Fig 13 legend.
SCHEMES = (
    ("pfc-ecmp", "gbn", "ecmp"),
    ("irn-ar", "irn", "ar"),
    ("mp-rdma", "mp_rdma", "ecmp"),
    ("dcp-ar", "dcp", "ar"),
)
LOADS = (0.3, 0.5)


def campaign(p: ScalePreset) -> dict:
    """One point per (load, scheme)."""
    return {
        "name": "fig13",
        "workload": [{"kind": "poisson", "name": "bg", "seed": 61}],
        "groups": [
            {"name": "load", "axis": "workload.bg.load",
             "values": list(LOADS)},
            {"name": "scheme", "axes": ["spec.transport", "spec.lb"],
             "values": [[t, lb] for _label, t, lb in SCHEMES]},
        ],
        "sim": {"max_events": 250_000_000},
        "seed": 61,
    }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig13", "WebSearch FCT slowdown (P50/P95) per scheme and load")
    it = iter(payloads)
    for load in LOADS:
        for label, _transport, _lb in SCHEMES:
            payload = next(it)
            sds = slowdowns(payload)
            done = [f for f in payload["flows"] if f["completed"]]
            stats = overall_percentiles(sds)
            bins = slowdown_bins(sds, scale=p.ws_scale)
            large_bins = [b for b in bins if b.bin_kb >= 1000]
            result.rows.append({
                "load": load,
                "scheme": label,
                "flows": len(sds),
                # Percentiles of survivors: say so if a flow is open.
                "p50": incomplete_note(payload) or stats["p50"],
                "p95": stats["p95"],
                "p99": stats["p99"],
                "large_flow_p95": (max(b.p95 for b in large_bins)
                                   if large_bins else float("nan")),
                "timeouts": sum(f["timeouts"] for f in done),
                "retx": sum(f["retx_pkts"] for f in done),
            })
    result.notes = ("paper: DCP lowest tail; ~5%/16% under IRN/MP-RDMA at "
                    "load 0.3, ~10%/12% at 0.5")
    return result
