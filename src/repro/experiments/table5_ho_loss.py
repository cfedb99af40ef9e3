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

from repro.analysis.fct import incomplete_note, switch_total
from repro.core.header import ho_data_size_ratio, wrr_weight
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

RADICES = (22, 16)
CCS = ("none", "dcqcn")
SEED = 111


def _fans(p: ScalePreset) -> tuple[int, int]:
    return (p.incast_fan_in, min(p.num_hosts - 1, 2 * p.incast_fan_in))


def campaign(p: ScalePreset) -> dict:
    """One point per (N, fan-in, CC): WebSearch 0.3 plus incast 0.1 on
    half buffers."""
    return {
        "name": "table5",
        "topology": {"transport": "dcp", "lb": "ar",
                     "buffer_bytes": p.buffer_bytes // 2,
                     "control_queue_bytes": 64_000},
        "workload": [
            {"kind": "poisson", "name": "bg", "load": 0.3, "seed": SEED},
            {"kind": "incast", "name": "incast", "load": 0.1,
             "seed": SEED + 1},
        ],
        "groups": [
            {"name": "n", "axis": "spec.incast_radix",
             "values": list(RADICES)},
            {"name": "fan", "axis": "workload.incast.fan_in",
             "values": list(_fans(p))},
            {"name": "cc", "axis": "spec.cc", "values": list(CCS)},
        ],
        "sim": {"max_events": 250_000_000},
        "seed": SEED,
    }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    # The weight is a pure function of N (§4.2); the simulator's switch
    # configuration derives it the same way (core.dcp_switch).
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
                    # A point that stopped at ``max_events`` has flows
                    # still open: its counts are a snapshot, not a ratio.
                    "loss_ratio": (incomplete_note(payload)
                                   or f"{ho_lost / total:.3%}"),
                })
    result.notes = ("paper: 0% everywhere except N=16, 255:1, no CC "
                    "(0.16%); CC removes all HO loss")
    return result
