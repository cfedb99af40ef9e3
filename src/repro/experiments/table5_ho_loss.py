"""Table 5: robustness of the lossless control plane under severe incast.

The WRR weight is derived from the configured ``N`` (incast radix): a
larger N buys a bigger control-queue share.  The paper measures the HO
loss ratio for {N=22, N=16} x {128-to-1, 255-to-1}, with and without
DCQCN, over WebSearch 0.3 background: only the hardest cell (N=16,
255:1, no CC) loses any HO packets (0.16%), and CC eliminates even
that.  We sweep the scaled analogue: the fan-in is the largest the
host count allows.
"""

from __future__ import annotations

from repro.analysis.fct import switch_total
from repro.core.header import ho_data_size_ratio, wrr_weight
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload, layout

RADICES = (22, 16)
CCS = ("none", "dcqcn")
SEED = 111

POINT_RUNNER = "repro.runner.points.simulate_flows"


def _fans(p: ScalePreset) -> tuple[int, int]:
    return (p.incast_fan_in, min(p.num_hosts - 1, 2 * p.incast_fan_in))


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (N, fan-in, CC)."""
    points = []
    for radix in RADICES:
        for fan in _fans(p):
            for cc in CCS:
                spec = NetworkSpec(
                    transport="dcp", topology="clos", num_hosts=p.num_hosts,
                    num_leaves=p.num_leaves, num_spines=p.num_spines,
                    link_rate=p.link_rate, lb="ar", seed=SEED, cc=cc,
                    incast_radix=radix, buffer_bytes=p.buffer_bytes // 2,
                    control_queue_bytes=64_000)
                bg = PoissonWorkload(
                    load=0.3, size_dist=websearch(scale=p.ws_scale),
                    duration_ns=p.duration_ns, seed=SEED,
                    max_flows=p.max_flows)
                incast = IncastWorkload(
                    load=0.1, fan_in=fan, flow_bytes=p.incast_flow_bytes,
                    duration_ns=p.duration_ns, seed=SEED + 1)
                points.append(SweepPoint(
                    f"n{radix}-fan{fan}-{cc}", spec,
                    {"flows": layout(spec, bg, incast),
                     "max_events": 250_000_000}))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    # The weight is a pure function of N (§4.2); the simulator's switch
    # configuration derives it the same way (DcpSwitchProfile.weight).
    result = ExperimentResult(
        "table5", "HO packet loss ratio under severe incast")
    it = iter(payloads)
    for radix in RADICES:
        for fan in _fans(p):
            for cc in CCS:
                payload = next(it)
                ho_total = switch_total(payload, "ho_enqueued")
                ho_lost = switch_total(payload, "ho_dropped")
                total = max(1, ho_total + ho_lost)
                result.rows.append({
                    "N": radix,
                    "incast": f"{fan}-to-1",
                    "cc": cc,
                    "wrr_weight": round(
                        wrr_weight(radix, ho_data_size_ratio()), 2),
                    "ho_packets": ho_total,
                    "ho_lost": ho_lost,
                    "loss_ratio": f"{ho_lost / total:.3%}",
                })
    result.notes = ("paper: 0% everywhere except N=16, 255:1, no CC "
                    "(0.16%); CC removes all HO loss")
    return result
