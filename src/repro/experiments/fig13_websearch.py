"""Fig 13: FCT slowdown under the WebSearch workload (loads 0.3 / 0.5).

The paper's headline general-workload comparison: PFC(+ECMP), IRN(+AR),
MP-RDMA and DCP(+AR) on a two-layer CLOS.  Reports P50/P95 slowdown per
flow-size bin plus overall percentiles.  The shape to preserve: the
fine-grained LB schemes beat PFC+ECMP, and DCP posts the lowest tail
slowdown among them (paper: 5-16% under IRN/MP-RDMA tails).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.fct import overall_percentiles, slowdown_bins
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.runner.points import slowdowns
from repro.workload.distributions import websearch
from repro.workload.flows import PoissonWorkload, layout

#: (row label, transport, load balancer) — the Fig 13 legend.
SCHEMES = (
    ("pfc-ecmp", "gbn", "ecmp"),
    ("irn-ar", "irn", "ar"),
    ("mp-rdma", "mp_rdma", "ecmp"),
    ("dcp-ar", "dcp", "ar"),
)
LOADS = (0.3, 0.5)

POINT_RUNNER = "repro.runner.points.simulate_flows"


def websearch_point(point_id: str, transport: str, lb: str, load: float,
                    p: ScalePreset, seed: int = 61,
                    spine_delay_ns: int = 1_000,
                    buffer_bytes: Optional[int] = None,
                    fidelity: str = "packet") -> SweepPoint:
    """One Fig 13/15 cell: a WebSearch run for one scheme at one load."""
    spec = NetworkSpec(
        transport=transport, topology="clos", num_hosts=p.num_hosts,
        num_leaves=p.num_leaves, num_spines=p.num_spines,
        link_rate=p.link_rate, lb=lb, seed=seed,
        buffer_bytes=buffer_bytes or p.buffer_bytes,
        spine_link_delay_ns=spine_delay_ns, fidelity=fidelity)
    wl = PoissonWorkload(load=load, size_dist=websearch(scale=p.ws_scale),
                         duration_ns=p.duration_ns, seed=seed,
                         max_flows=p.max_flows)
    return SweepPoint(point_id, spec, {"flows": layout(spec, wl),
                                       "max_events": 250_000_000})


def sweep(p: ScalePreset, fidelity: str = "packet") -> list[SweepPoint]:
    """One point per (load, scheme)."""
    return [websearch_point(f"load{load:g}-{label}", transport, lb, load, p,
                            fidelity=fidelity)
            for load in LOADS for label, transport, lb in SCHEMES]


def merge(payloads: list, p: ScalePreset,
          fidelity: str = "packet") -> ExperimentResult:
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
                "p50": stats["p50"],
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


def per_bin_table(payloads: list, p: ScalePreset, load: float = 0.5,
                  percentile_key: str = "p95") -> ExperimentResult:
    """The full per-size-bin curves (the actual Fig 13 x-axis), from the
    payloads of :func:`sweep`."""
    by_point = dict(zip(((l, label) for l in LOADS
                         for label, _t, _lb in SCHEMES), payloads))
    result = ExperimentResult(
        "fig13-bins", f"Per-bin {percentile_key} slowdown at load {load}")
    curves = {}
    for label, _transport, _lb in SCHEMES:
        bins = slowdown_bins(slowdowns(by_point[load, label]),
                             scale=p.ws_scale)
        curves[label] = {b.bin_kb: getattr(b, percentile_key) for b in bins}
    all_bins = sorted({kb for c in curves.values() for kb in c})
    for kb in all_bins:
        row = {"bin_kb": kb}
        for label in curves:
            row[label] = curves[label].get(kb, float("nan"))
        result.rows.append(row)
    return result
