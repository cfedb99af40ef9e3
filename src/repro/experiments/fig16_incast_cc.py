"""Fig 16: high-load incast with and without congestion control.

WebSearch 0.5 plus N-to-1 incast at 5% load.  Without CC, DCP wins P50
but loses P99 — HO storms under extreme incast trigger retransmission
bursts that feed the congestion (the paper's own observation).  With
DCQCN integrated, DCP posts the best P99 as well (paper: ~31%/29%
below MP-RDMA/IRN).  MP-RDMA always runs its native adaptive window.
"""

from __future__ import annotations

from repro.analysis.fct import overall_percentiles, slowdowns, switch_total
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload, layout

SCHEMES = (("irn", "ar"), ("mp_rdma", "ecmp"), ("dcp", "ar"))
CCS = ("none", "dcqcn")

SEED = 101

POINT_RUNNER = "repro.runner.points.simulate_flows"


def _runs_cc(transport: str, cc: str) -> str:
    """The CC a row's simulation runs: MP-RDMA keeps its native window
    whatever the column says, so both its rows read one point."""
    return "none" if transport == "mp_rdma" else cc


def _point_keys() -> list[tuple[str, str, str]]:
    """``(cc, transport, lb)`` of each distinct simulation."""
    keys = []
    for cc in CCS:
        for transport, lb in SCHEMES:
            key = (_runs_cc(transport, cc), transport, lb)
            if key not in keys:
                keys.append(key)
    return keys


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per distinct (CC, scheme)."""
    points = []
    for cc, transport, lb in _point_keys():
        spec = NetworkSpec(
            transport=transport, topology="clos", num_hosts=p.num_hosts,
            num_leaves=p.num_leaves, num_spines=p.num_spines,
            link_rate=p.link_rate, lb=lb, seed=SEED, cc=cc,
            buffer_bytes=p.buffer_bytes // 2)
        bg = PoissonWorkload(
            load=0.5, size_dist=websearch(scale=p.ws_scale),
            duration_ns=p.duration_ns, seed=SEED,
            max_flows=p.max_flows, tag="bg")
        incast = IncastWorkload(
            load=0.05, fan_in=p.incast_fan_in,
            flow_bytes=p.incast_flow_bytes, duration_ns=p.duration_ns,
            seed=SEED + 1)
        points.append(SweepPoint(
            f"{cc}-{transport}", spec,
            {"flows": layout(spec, bg, incast),
             "max_events": 250_000_000}))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig16", "Incast + WebSearch 0.5: P50/P99 slowdown w/ and w/o CC")
    by_key = dict(zip(_point_keys(), payloads))
    for cc in CCS:
        for transport, lb in SCHEMES:
            payload = by_key[_runs_cc(transport, cc), transport, lb]
            sds = slowdowns(payload)
            stats = overall_percentiles(sds)
            result.rows.append({
                "cc": cc,
                "scheme": transport,
                "flows": len(sds),
                "p50": stats["p50"],
                "p99": stats["p99"],
                "timeouts": sum(f["timeouts"] for f in payload["flows"]),
                "trims": switch_total(payload, "trimmed"),
            })
    result.notes = ("paper: DCP best P50 always; worst P99 w/o CC, best P99 "
                    "with DCQCN")
    return result
