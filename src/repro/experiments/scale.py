"""Scale: events and flows vs host count, packet vs hybrid tier.

Not a paper figure — a tracked experiment for the simulator itself.
Each point runs a fig14-style AI collective (ring-AllReduce, one group
per leaf) on a two-layer CLOS and reports how many scheduler events it
consumed.  The grid crosses the host count with the fidelity tier
(``packet`` | ``hybrid``, :mod:`repro.sim.fidelity`) as one campaign
spec whose zipped ``cell`` group moves fidelity, host, leaf and spine
counts together; packet mode is capped at 64 hosts so the full-grid run
stays inside a CI budget.

The table holds only what a point computes exactly, so serial,
``--jobs N`` and a cache replay print it byte for byte.  Wall time is
the benchmark's job (``python3 -m bench``: ``hybrid256``,
``collective64``) and EXPERIMENTS.md "Scale"'s dated table.
"""

from __future__ import annotations

from statistics import fmean

from repro.analysis.fct import incomplete_note
from repro.experiments.result import ExperimentResult
from repro.workload.collective import group_jcts

#: Host grid per preset.  Hybrid runs the whole grid; packet mode stops
#: at PACKET_MAX_HOSTS.
HOST_GRIDS = {
    "quick": (16, 64),
    "default": (16, 64, 128),
    "full": (16, 64, 128, 256),
}
PACKET_MAX_HOSTS = 64
HOSTS_PER_LEAF = 8


def _cells(p) -> list[tuple[str, int]]:
    """The (fidelity, hosts) grid, in point order."""
    return [(fidelity, hosts)
            for fidelity in ("packet", "hybrid")
            for hosts in HOST_GRIDS.get(p.name, HOST_GRIDS["default"])
            if fidelity == "hybrid" or hosts <= PACKET_MAX_HOSTS]


def campaign(p) -> dict:
    """One point per (fidelity, hosts) cell: one ring-AllReduce per
    leaf (groups of HOSTS_PER_LEAF consecutive hosts, so a group is a
    leaf), the pattern the fluid tier handles best, which is the point
    of the experiment."""
    cells = []
    for fidelity, hosts in _cells(p):
        leaves = max(2, hosts // HOSTS_PER_LEAF)
        cells.append([fidelity, hosts, leaves, max(2, leaves // 2)])
    return {
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
    }


def merge(payloads, p) -> ExperimentResult:
    """Fold point payloads into the events-per-cell table."""
    result = ExperimentResult(
        "scale", "Simulator events vs hosts, per fidelity")
    for (fidelity, hosts), pl in zip(_cells(p), payloads):
        row = {
            "fidelity": fidelity,
            "hosts": hosts,
            "events": pl["events"],
            "flows": len(pl["flows"]),
            # A group with a flow open has no JCT.
            "mean_jct_ms": (incomplete_note(pl)
                            or fmean(group_jcts(pl["flows"])) / 1e6),
        }
        if fidelity == "hybrid":
            row["fluid_flows"] = pl["fluid"]["fluid_flows"]
            row["escalations"] = pl["fluid"]["escalations"]
        result.rows.append(row)
    result.notes = ("wall time: python3 -m bench (hybrid256, "
                    "collective64) and EXPERIMENTS.md \"Scale\"")
    return result
