"""Fig 12: testbed AI workloads — DCP+AR vs CX5+ECMP, 4 groups of 4.

The 16-RNIC testbed (Fig 9) arranged into four groups, each running
AllReduce or AllToAll; groups start together and contend on the
cross-switch links.  Shape: DCP+AR cuts JCT versus CX5+ECMP (paper: up
to 33% for AllReduce, 42% for AllToAll) because ECMP collisions on the
parallel links serialize some groups' traffic.
"""

from __future__ import annotations

from repro.analysis.fct import incomplete_note
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.workload.collective import collective_rows, group_jcts

SCHEMES = (("dcp-ar", "dcp", "ar"), ("cx5-ecmp", "gbn", "ecmp"))
KINDS = (("allreduce", "ar"), ("alltoall", "a2a"))

POINT_RUNNER = "repro.runner.points.simulate_flows"


def _groups(hosts: int, group_size: int = 4) -> list[list[int]]:
    """Interleave group membership across the two switches so every
    collective crosses the fabric (like the paper's cabling)."""
    half = hosts // 2
    return [[m for m in (2 * g, 2 * g + 1, half + 2 * g, half + 2 * g + 1)
             if m < hosts]
            for g in range(hosts // group_size)]


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (collective, scheme)."""
    points = []
    for kind, tag in KINDS:
        for label, transport, lb in SCHEMES:
            spec = NetworkSpec(
                transport=transport, topology="testbed",
                num_hosts=p.testbed_hosts,
                cross_links=p.testbed_cross_links, link_rate=p.link_rate,
                lb=lb, seed=81, buffer_bytes=p.buffer_bytes)
            params = {"flows": collective_rows(
                          kind, _groups(p.testbed_hosts),
                          p.collective_bytes, tag),
                      "max_events": 200_000_000}
            points.append(SweepPoint(f"{kind}-{label}", spec, params))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig12", "Testbed AI workloads: per-group completion time (ms)")
    it = iter(payloads)
    for kind, _tag in KINDS:
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
