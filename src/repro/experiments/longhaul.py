"""§6.1 long-haul: recovery schemes over a 10 km cross-switch link.

One cross-switch link is replaced by a 10 km optical path (50 us
one-hop delay).  The paper observes DCP sustaining ~85 Gbps of a
100 Gbps link; the claim to preserve is that DCP runs stably near line
rate despite the 100x larger BDP, with no PFC headroom requirement
(the switch buffer stays at its normal size).

On top of the original lossless-DCP measurement, each distance is also
run with a small forced loss rate across the recovery-scheme frontier
(DCP, IRN, SDR, RIFL).  High BDP is exactly where the schemes diverge:
a timeout costs a full long-haul RTT of idle pipe, so SDR's per-hole
timers and RIFL's hop-local repair (a hop round trip, not an
end-to-end one) separate from RTO-prone recovery as distance grows.

The grid is one campaign spec: a zipped ``distance`` group (delay and
flow size) x a zipped (transport, loss rate) group.
"""

from __future__ import annotations

from repro.analysis.fct import goodput_cell
from repro.campaigns.compiler import compile_campaign
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.runner import SweepPoint
from repro.sim.units import fiber_delay_ns

DISTANCES_KM = (0.1, 1.0, 10.0)
#: Recovery schemes compared under forced loss on the long-haul path.
TRANSPORTS = ("dcp", "irn", "sdr", "rifl")
#: Forced loss for the comparison columns (the headline DCP column
#: stays lossless to preserve the paper's original claim).
LOSS_RATE = 1e-3


def _haul(p: ScalePreset, km: float) -> list[list[int]]:
    """One flow across the cross-switch link, several BDPs long."""
    size = max(p.long_flow_bytes,
               int(p.link_rate / 8 * fiber_delay_ns(km) * 6))
    return [[0, 2, size, 0]]


def sweep(p: ScalePreset) -> tuple[SweepPoint, ...]:
    """Per distance: lossless DCP, then every transport under loss."""
    return compile_campaign({
        "name": "longhaul",
        "topology": {"topology": "testbed", "num_hosts": 4,
                     "cross_links": 1, "lb": "ecmp",
                     "num_leaves": 4, "num_spines": 4},
        "workload": [{"kind": "flows", "name": "haul"}],
        "groups": [
            {"name": "distance",
             "axes": ["spec.spine_link_delay_ns", "workload.haul.flows"],
             "values": [[fiber_delay_ns(km), _haul(p, km)]
                        for km in DISTANCES_KM],
             "labels": [f"{km:g}km" for km in DISTANCES_KM]},
            {"name": "run", "axes": ["spec.transport", "spec.loss_rate"],
             "values": [["dcp", 0.0],
                        *([t, LOSS_RATE] for t in TRANSPORTS)]},
        ],
        "sim": {"max_events": 120_000_000},
        "seed": 31,
    }, p).points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "longhaul", "Goodput over long-haul cross-switch links")
    it = iter(payloads)
    for km in DISTANCES_KM:
        row = {
            "distance_km": km,
            "one_hop_delay_us": fiber_delay_ns(km) / 1000,
            "goodput_gbps": goodput_cell(next(it)),
            "line_rate_gbps": p.link_rate,
        }
        for transport in TRANSPORTS:
            row[f"{transport}_lossy_gbps"] = goodput_cell(next(it))
        result.rows.append(row)
    result.notes = ("paper: ~85 Gbps of 100 Gbps at 10 km, stable; "
                    f"*_lossy columns add {LOSS_RATE:.1%} forced loss")
    return result
