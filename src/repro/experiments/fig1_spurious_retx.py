"""Fig 1: spurious retransmissions of IRN vs DCP under adaptive routing.

CLOS fabric, adaptive routing, WebSearch background at load 0.3 with
buffers large enough that *no packet is dropped* — yet IRN retransmits
heavily because AR-induced out-of-order arrivals trigger SACK-based
loss recovery.  DCP's HO-based scheme retransmits only on real trims,
so its ratio is zero.

Outputs both views of the figure: per-flow retransmission ratio by
flow size (Fig 1a) and the CDF of the ratio per size class (Fig 1b).
"""

from __future__ import annotations

from repro.analysis.fct import percentile, switch_total
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.workload.distributions import websearch, websearch_class
from repro.workload.flows import PoissonWorkload, layout

SCHEMES = ("irn", "dcp")

SEED = 41

POINT_RUNNER = "repro.runner.points.simulate_flows"


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per scheme."""
    points = []
    for scheme in SCHEMES:
        spec = NetworkSpec(
            transport=scheme, topology="clos", num_hosts=p.num_hosts,
            num_leaves=p.num_leaves, num_spines=p.num_spines,
            link_rate=p.link_rate, lb="ar", seed=SEED,
            # Large buffer + high trim threshold: congestion never drops
            # or trims, isolating the pure reordering effect the figure
            # targets.
            buffer_bytes=8 * p.buffer_bytes,
            trim_threshold_bytes=2 * p.buffer_bytes)
        wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=p.ws_scale),
                             duration_ns=p.duration_ns, seed=SEED,
                             max_flows=p.max_flows)
        points.append(SweepPoint(scheme, spec, {"flows": layout(spec, wl),
                                                "max_events": 150_000_000}))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig1", "Spurious retransmissions: IRN vs DCP with AR, WebSearch 0.3")
    for scheme, payload in zip(SCHEMES, payloads):
        flows = [f for f in payload["flows"] if f["completed"]]
        ratios = {"small": [], "medium": [], "large": []}
        for f in flows:
            # retransmitted packets over the packets the flow needed
            sent = f["data_pkts_sent"]
            ratios[websearch_class(f["size_bytes"], scale=p.ws_scale)].append(
                f["retx_pkts"] / sent if sent else 0.0)
        all_ratios = [r for rs in ratios.values() for r in rs]
        spurious = sum(1 for r in all_ratios if r > 0)
        row = {
            "scheme": scheme,
            "flows": len(flows),
            "real_drops": (switch_total(payload, "dropped_congestion")
                           + switch_total(payload, "dropped_buffer")),
            "trims": switch_total(payload, "trimmed"),
            "flows_with_retx": f"{spurious / max(1, len(all_ratios)):.0%}",
            "mean_retx_ratio": (sum(all_ratios) / len(all_ratios)
                                if all_ratios else 0.0),
            "p95_retx_ratio": percentile(all_ratios, 95) if all_ratios else 0.0,
        }
        for cls in ("small", "medium", "large"):
            vals = ratios[cls]
            frac = (sum(1 for r in vals if r > 0) / len(vals)) if vals else 0.0
            row[f"{cls}_spurious_frac"] = f"{frac:.0%}"
        result.rows.append(row)
    result.notes = ("paper Fig 1b: ~50%/80%/90% of small/medium/large IRN "
                    "flows retransmit spuriously; DCP: none")
    return result
