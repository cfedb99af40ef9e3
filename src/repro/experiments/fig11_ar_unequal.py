"""Fig 11: adaptive routing over unequal cross-switch paths.

Two senders behind switch 1 stream to two receivers behind switch 2
over two parallel cross-switch links whose capacity ratio is swept
through 1:1, 1:4 and 1:10.  DCP + adaptive routing keeps aggregate
goodput at the sum of the path capacities (order-tolerant reception
absorbs the reordering); CX5 + ECMP pins each flow to one hashed path
and collapses when flows land on the slow link.

CX5+ECMP's fate depends on which paths the flow hashes draw, so it is
reported as a mean and a worst case over several seeds; the paper's
testbed plot corresponds to the collision (worst) draw.

The grid is one campaign spec: the capacity ratio (a
``spec.cross_port_rates`` axis) x a zipped (transport, lb, cc, seed) group.
"""

from __future__ import annotations

from repro.analysis.fct import incomplete_note
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

CAPACITY_RATIOS = ((1, 1), (1, 4), (1, 10))
DCP_SEED = 21
CX5_SEEDS = (21, 22, 23, 24, 25)


def campaign(p: ScalePreset) -> dict:
    """Per capacity ratio: one DCP+AR point, then CX5+ECMP per seed."""
    rate = p.link_rate
    return {
        "name": "fig11",
        "topology": {"topology": "testbed", "num_hosts": 4,
                     "cross_links": 2, "num_leaves": 4, "num_spines": 4},
        "workload": [
            {"kind": "flows", "name": "a",
             "flows": [[0, 2, p.long_flow_bytes, 0]]},
            {"kind": "flows", "name": "b",
             "flows": [[1, 3, p.long_flow_bytes, 0]]}],
        "groups": [
            {"name": "ratio", "axis": "spec.cross_port_rates",
             "values": [[[0, rate], [1, rate / slow]]
                        for _, slow in CAPACITY_RATIOS],
             "labels": [f"{fast}to{slow}" for fast, slow in CAPACITY_RATIOS]},
            # window flow control on DCP so offered load tracks the path
            # capacity (the FPGA testbed's DCP-RNIC is window-limited too)
            {"name": "run",
             "axes": ["spec.transport", "spec.lb", "spec.cc", "spec.seed"],
             "values": [["dcp", "ar", "window", DCP_SEED],
                        *(["gbn", "ecmp", "none", s] for s in CX5_SEEDS)]},
        ],
        "sim": {"max_events": 120_000_000},
    }


def _avg_goodput(payloads: list) -> tuple[float | str, float | str]:
    """Mean and worst per-point average goodput over ``payloads``, or
    the note counting their open flows in both cells."""
    note = incomplete_note({"flows": [f for pl in payloads
                                      for f in pl["flows"]]})
    avgs = [sum(f["goodput_gbps"] for f in pl["flows"]) / len(pl["flows"])
            for pl in payloads]
    return (note, note) if note else (sum(avgs) / len(avgs), min(avgs))


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig11", "Average goodput of 2 flows over unequal paths (Gbps)")
    it = iter(payloads)
    for ratio in CAPACITY_RATIOS:
        dcp, _ = _avg_goodput([next(it)])
        cx5_mean, cx5_worst = _avg_goodput([next(it) for _ in CX5_SEEDS])
        result.rows.append({
            "capacity_ratio": f"{ratio[0]}:{ratio[1]}",
            "dcp_ar_gbps": dcp,
            "cx5_ecmp_mean_gbps": cx5_mean,
            "cx5_ecmp_worst_gbps": cx5_worst,
        })
    result.notes = ("paper: DCP goodput stable across ratios; CX5 degrades "
                    "under non-equal capacities (its testbed draw matches "
                    "our worst-case hash)")
    return result
