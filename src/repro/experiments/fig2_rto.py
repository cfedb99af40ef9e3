"""Fig 2: excessive RTOs in IRN vs none in DCP.

WebSearch background (load 0.3) plus N-to-1 incast (load 0.1) on a
lossy CLOS with buffers small enough that the incast actually drops
packets.  IRN times out on tail/retransmitted losses (more under AR,
which adds spurious-retransmission load); DCP recovers every loss via
HO packets and hits zero timeouts.
"""

from __future__ import annotations

from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.runner.points import switch_total
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload, layout

CONFIGS = (("irn", "ecmp"), ("irn", "ar"), ("dcp", "ar"))

SEED = 51

POINT_RUNNER = "repro.runner.points.simulate_flows"


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (scheme, load balancer)."""
    points = []
    for scheme, lb in CONFIGS:
        spec = NetworkSpec(
            transport=scheme, topology="clos", num_hosts=p.num_hosts,
            num_leaves=p.num_leaves, num_spines=p.num_spines,
            link_rate=p.link_rate, lb=lb, seed=SEED,
            # deliberately tight buffers so the incast causes real loss
            buffer_bytes=p.buffer_bytes // 4)
        bg = PoissonWorkload(load=0.3, size_dist=websearch(scale=p.ws_scale),
                             duration_ns=p.duration_ns, seed=SEED, tag="bg",
                             max_flows=p.max_flows)
        incast = IncastWorkload(load=0.1, fan_in=p.incast_fan_in,
                                flow_bytes=p.incast_flow_bytes,
                                duration_ns=p.duration_ns, seed=SEED + 1)
        points.append(SweepPoint(f"{scheme}-{lb}", spec,
                                 {"flows": layout(spec, bg, incast),
                                  "max_events": 150_000_000}))
    return points


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
