"""Scale: wall-time and events/s vs host count, packet vs hybrid tier.

Not a paper figure — a tracked experiment for the simulator itself.
Each point runs a fig14-style AI collective (ring-AllReduce, one group
per leaf) on a two-layer CLOS and reports how long the *simulation*
took and how many scheduler events it consumed.  The grid crosses the
host count with the fidelity tier (``packet`` | ``hybrid``,
:mod:`repro.sim.fidelity`) as one campaign spec whose zipped ``cell``
group moves fidelity, host, leaf and spine counts together; packet mode
is capped at 64 hosts so the full-grid run stays inside a CI budget,
and the merge extrapolates the packet cost linearly to score the hybrid
speedup at scale.

Caveat: ``wall_s`` is measured by :func:`run_point` (the one point
runner that reads a clock), so it rides the result cache like any other
payload field — a cached replay reports the wall time of the run that
*produced* the entry.  That is deliberate: cached experiment reruns
should not overwrite a real measurement with a near-zero one; pass
``--no-cache`` to measure afresh.
"""

from __future__ import annotations

import time
from statistics import fmean

from repro.analysis.fct import incomplete_note
from repro.campaigns.compiler import compile_campaign
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint
from repro.workload.collective import group_jcts

POINT_RUNNER = "repro.experiments.scale.run_point"

#: Host grid per preset.  Hybrid runs the whole grid; packet mode stops
#: at PACKET_MAX_HOSTS and the merge extrapolates beyond it.
HOST_GRIDS = {
    "quick": (16, 64),
    "default": (16, 64, 128),
    "full": (16, 64, 128, 256),
}
PACKET_MAX_HOSTS = 64
HOSTS_PER_LEAF = 8


def run_point(spec: NetworkSpec, params: dict) -> dict:
    """:func:`~repro.runner.points.simulate_flows` plus the cell and
    ``wall_s``, the wall time it took (network build plus run)."""
    from repro.runner.points import simulate_flows  # no simulator on replay
    t0 = time.perf_counter()
    payload = simulate_flows(spec, params)
    return {**payload, "wall_s": time.perf_counter() - t0,
            "hosts": spec.num_hosts, "fidelity": spec.fidelity}


def sweep(p) -> tuple[SweepPoint, ...]:
    """One point per (fidelity, hosts) cell: one ring-AllReduce per
    leaf (groups of HOSTS_PER_LEAF consecutive hosts, so a group is a
    leaf), the pattern the fluid tier handles best, which is the point
    of the experiment."""
    cells = []
    for fidelity in ("packet", "hybrid"):
        for hosts in HOST_GRIDS.get(p.name, HOST_GRIDS["default"]):
            if fidelity == "packet" and hosts > PACKET_MAX_HOSTS:
                continue
            leaves = max(2, hosts // HOSTS_PER_LEAF)
            cells.append([fidelity, hosts, leaves, max(2, leaves // 2)])
    return compile_campaign({
        "name": "scale",
        "topology": {"transport": "dcp", "lb": "ar", "topology": "clos"},
        "workload": [{"kind": "collective", "name": "ring",
                      "collective": "allreduce",
                      "group_size": HOSTS_PER_LEAF}],
        "groups": [{"name": "cell",
                    "axes": ["spec.fidelity", "spec.num_hosts",
                             "spec.num_leaves", "spec.num_spines"],
                    "values": cells}],
        "sim": {"max_events": 400_000_000},
        "seed": 73,
    }, p).points


def merge(payloads, p) -> ExperimentResult:
    """Fold point payloads into the wall-time / events-per-sec table."""
    result = ExperimentResult(
        "scale", "Simulator wall-time and events/s vs hosts, per fidelity")
    by_cell = {(pl["fidelity"], pl["hosts"]): pl for pl in payloads}
    packet_rates = {h: pl["wall_s"] / h
                    for (f, h), pl in by_cell.items() if f == "packet"}
    # Linear per-host extrapolation anchored at the largest packet run.
    anchor = max(packet_rates) if packet_rates else None
    for pl in payloads:
        row = {
            "fidelity": pl["fidelity"],
            "hosts": pl["hosts"],
            "wall_s": pl["wall_s"],
            "events": pl["events"],
            "events_per_sec": pl["events"] / pl["wall_s"]
            if pl["wall_s"] > 0 else float("inf"),
            "flows": len(pl["flows"]),
            # A group with a flow open has no JCT.
            "mean_jct_ms": (incomplete_note(pl)
                            or fmean(group_jcts(pl["flows"])) / 1e6),
        }
        if pl["fidelity"] == "hybrid":
            fluid = pl.get("fluid") or {}
            row["fluid_flows"] = fluid.get("fluid_flows", 0)
            row["escalations"] = fluid.get("escalations", 0)
            if anchor is not None and pl["wall_s"] > 0:
                packet_wall = packet_rates[anchor] * pl["hosts"]
                row["speedup_vs_packet"] = packet_wall / pl["wall_s"]
        result.rows.append(row)
    result.notes = (
        "speedup_vs_packet: hybrid wall-time vs packet-mode cost "
        f"extrapolated linearly per host from the {anchor}-host run; "
        "wall_s rides the cache (see module docstring)")
    return result

