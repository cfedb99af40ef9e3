"""Fig 12: testbed AI workloads — DCP+AR vs CX5+ECMP, 4 groups of 4.

The 16-RNIC testbed (Fig 9) arranged into four groups, each running
AllReduce or AllToAll; groups start together and contend on the
cross-switch links.  Shape: DCP+AR cuts JCT versus CX5+ECMP (paper: up
to 33% for AllReduce, 42% for AllToAll) because ECMP collisions on the
parallel links serialize some groups' traffic.  The grid is one
campaign spec: a ``collective`` layer over the interleaved
:func:`_placement`, crossed with the zipped (transport, lb) group.
"""

from __future__ import annotations

from repro.analysis.fct import incomplete_note
from repro.campaigns.compiler import compile_campaign
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.runner import SweepPoint
from repro.workload.collective import group_jcts

SCHEMES = (("dcp-ar", "dcp", "ar"), ("cx5-ecmp", "gbn", "ecmp"))
KINDS = ("allreduce", "alltoall")


def _placement(hosts: int) -> list[int]:
    """Hosts in group order, four per group: group ``g`` is hosts
    ``2g, 2g+1`` on the first switch and the same pair on the second,
    so every collective crosses the fabric (like the paper's cabling)."""
    half = hosts // 2
    return [m for g in range(hosts // 4)
            for m in (2 * g, 2 * g + 1, half + 2 * g, half + 2 * g + 1)]


def sweep(p: ScalePreset) -> tuple[SweepPoint, ...]:
    """One point per (collective, scheme)."""
    return compile_campaign({
        "name": "fig12",
        "topology": {"topology": "testbed", "num_hosts": p.testbed_hosts,
                     "cross_links": p.testbed_cross_links,
                     "num_leaves": 4, "num_spines": 4},
        "workload": [{"kind": "collective", "name": "coll",
                      "hosts": _placement(p.testbed_hosts),
                      "group_size": 4}],
        "groups": [
            {"name": "collective", "axis": "workload.coll.collective",
             "values": list(KINDS)},
            {"name": "scheme", "axes": ["spec.transport", "spec.lb"],
             "values": [[t, lb] for _label, t, lb in SCHEMES]},
        ],
        "sim": {"max_events": 200_000_000},
        "seed": 81,
    }, p).points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig12", "Testbed AI workloads: per-group completion time (ms)")
    it = iter(payloads)
    for kind in KINDS:
        for label, _transport, _lb in SCHEMES:
            payload = next(it)
            # A point with a flow open prints that instead of its JCTs.
            row = {"workload": kind, "scheme": label,
                   "mean_jct_ms": incomplete_note(payload)}
            result.rows.append(row)
            if row["mean_jct_ms"] is None:
                jcts = sorted(j / 1e6 for j in group_jcts(payload["flows"]))
                row.update(mean_jct_ms=sum(jcts) / len(jcts),
                           max_jct_ms=jcts[-1],
                           per_group_ms=tuple(round(j, 3) for j in jcts))
    result.notes = "paper: DCP cuts JCT up to 33% (AllReduce) / 42% (AllToAll)"
    return result
