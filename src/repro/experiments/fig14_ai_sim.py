"""Fig 14: AllReduce / AllToAll collectives at simulation scale.

Groups of servers each run one collective, all starting together.  JCT
is the last flow of a group; the "Ideal" row is the contention-free
lower bound.  Shape to preserve: DCP posts the lowest JCT and the best
individual-flow tail FCT (paper: 38-61% lower JCT than MP-RDMA / IRN /
PFC for AllReduce, 5-46% for AllToAll).  The grid is one campaign spec:
a ``collective`` layer crossed with the zipped (transport, lb) group.
"""

from __future__ import annotations

from repro.analysis.fct import incomplete_note, percentile
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.workload.collective import group_jcts

SCHEMES = (
    ("pfc-ecmp", "gbn", "ecmp"),
    ("irn-ar", "irn", "ar"),
    ("mp-rdma", "mp_rdma", "ecmp"),
    ("dcp-ar", "dcp", "ar"),
)
KINDS = ("allreduce", "alltoall")


def campaign(p: ScalePreset) -> dict:
    """One point per (collective, scheme); groups are contiguous host
    ranges, like the paper's 16-servers-per-group arrangement."""
    k = p.collective_group_size
    return {
        "name": "fig14",
        "topology": {"topology": "clos"},
        "workload": [{"kind": "collective", "name": "coll",
                      "hosts": list(range(p.collective_groups * k)),
                      "group_size": k}],
        "groups": [
            {"name": "collective", "axis": "workload.coll.collective",
             "values": list(KINDS)},
            {"name": "scheme", "axes": ["spec.transport", "spec.lb"],
             "values": [[t, lb] for _label, t, lb in SCHEMES]},
        ],
        "sim": {"max_events": 300_000_000},
        "seed": 71,
    }


def ideal_jct_ns(kind: str, preset) -> float:
    """Contention-free lower bound for one collective."""
    k = preset.collective_group_size
    slice_bytes = preset.collective_bytes // k
    wire = slice_bytes * 8 / preset.link_rate
    if kind == "allreduce":
        return 2 * (k - 1) * wire
    return (k - 1) * wire  # all slices leave one NIC serially at best


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig14", "Collective JCT (ms) and per-flow tail FCT")
    it = iter(payloads)
    for kind in KINDS:
        for label, _transport, _lb in SCHEMES:
            payload = next(it)
            flows = payload["flows"]
            # A point with a flow open prints that instead of its JCTs.
            row = {"collective": kind, "scheme": label,
                   "mean_jct_ms": incomplete_note(payload)}
            result.rows.append(row)
            if row["mean_jct_ms"] is None:
                jcts = group_jcts(flows)
                fcts = [f["fct_ns"] for f in flows]
                row.update(mean_jct_ms=sum(jcts) / len(jcts) / 1e6,
                           max_jct_ms=max(jcts) / 1e6,
                           p95_fct_ms=percentile(fcts, 95) / 1e6,
                           timeouts=sum(f["timeouts"] for f in flows),
                           retx=sum(f["retx_pkts"] for f in flows))
        result.rows.append({
            "collective": kind,
            "scheme": "ideal",
            "mean_jct_ms": ideal_jct_ns(kind, p) / 1e6,
            "max_jct_ms": ideal_jct_ns(kind, p) / 1e6,
        })
    result.notes = ("paper: DCP lowest JCT (38%/44%/61% under MP-RDMA/IRN/"
                    "PFC for AllReduce); tail FCT explains JCT")
    return result
