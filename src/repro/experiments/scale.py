"""Scale: wall-time and events/s vs host count, packet vs hybrid tier.

Not a paper figure — a tracked experiment for the simulator itself.
Each point runs a fig14-style AI collective (ring-AllReduce, one group
per leaf) on a two-layer CLOS and reports how long the *simulation*
took and how many scheduler events it consumed.  The grid crosses the
host count with the fidelity tier (``packet`` | ``hybrid``,
:mod:`repro.sim.fidelity`); packet mode is capped at 64 hosts so the
full-grid run stays inside a CI budget, and the merge extrapolates the
packet cost linearly to score the hybrid speedup at scale.

Caveat: ``wall_s`` is measured inside the point runner, so it rides the
result cache like any other payload field — a cached replay reports the
wall time of the run that *produced* the entry.  That is deliberate:
cached experiment reruns should not overwrite a real measurement with a
near-zero one; pass ``--no-cache`` to measure afresh.
"""

from __future__ import annotations

import time

from repro.analysis.fct import percentile
from repro.experiments.common import Network, NetworkSpec
from repro.experiments.presets import get_preset
from repro.experiments.result import ExperimentResult
from repro.runner import SweepPoint, serial_runner
from repro.workload.collective import run_grouped_collectives

POINT_RUNNER = "repro.experiments.scale.run_scale_point"

#: Host grid per preset.  Hybrid runs the whole grid; packet mode stops
#: at PACKET_MAX_HOSTS and the merge extrapolates beyond it.
HOST_GRIDS = {
    "quick": (16, 64),
    "default": (16, 64, 128),
    "full": (16, 64, 128, 256),
}
PACKET_MAX_HOSTS = 64
HOSTS_PER_LEAF = 8


def _hosts_for(p) -> tuple[int, ...]:
    return HOST_GRIDS.get(getattr(p, "name", "default"),
                          HOST_GRIDS["default"])


def point_spec(p, fidelity: str, hosts: int) -> tuple[NetworkSpec, dict]:
    """Spec + params for one (fidelity, hosts) cell.

    One ring-AllReduce per leaf (groups are contiguous host ranges, so
    a group == a leaf): the traffic pattern fig14 uses, and the one the
    fluid tier handles best — which is the point of the experiment.
    """
    leaves = max(2, hosts // HOSTS_PER_LEAF)
    spec = NetworkSpec(
        transport="dcp", cc="none", lb="ar", topology="clos",
        num_hosts=hosts, num_leaves=leaves,
        num_spines=max(2, leaves // 2),
        link_rate=p.link_rate, buffer_bytes=p.buffer_bytes,
        seed=73, fidelity=fidelity)
    params = {"kind": "allreduce", "groups": leaves,
              "group_size": HOSTS_PER_LEAF,
              "total_bytes": p.collective_bytes,
              "max_events": 400_000_000}
    return spec, params


def sweep(p) -> list[SweepPoint]:
    points = []
    for fidelity in ("packet", "hybrid"):
        for hosts in _hosts_for(p):
            if fidelity == "packet" and hosts > PACKET_MAX_HOSTS:
                continue
            spec, params = point_spec(p, fidelity, hosts)
            points.append(SweepPoint(f"{fidelity}-{hosts}", spec, params))
    return points


def run_scale_point(spec: NetworkSpec, params: dict) -> dict:
    """Build, run and time one collective; JSON-safe payload."""
    t0 = time.perf_counter()
    net = Network(spec)
    groups = run_grouped_collectives(
        net, params["kind"], params["groups"], params["group_size"],
        params["total_bytes"])
    net.run_until_flows_done(max_events=params.get("max_events",
                                                   400_000_000))
    wall_s = time.perf_counter() - t0
    jcts = [g.jct_ns() for g in groups]
    payload = {
        "hosts": spec.num_hosts,
        "fidelity": spec.fidelity,
        "wall_s": wall_s,
        "events": net.sim.events_processed,
        "flows": len(net.flows),
        "incomplete": sum(1 for f in net.flows if not f.completed),
        "mean_jct_ns": sum(jcts) / len(jcts),
        "max_jct_ns": max(jcts),
        "p95_fct_ns": percentile(
            [fct for g in groups for fct in g.fcts_ns()], 95),
    }
    if net.fidelity is not None:
        payload["fluid"] = net.fidelity.summary()
    return payload


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
            "flows": pl["flows"],
            "mean_jct_ms": pl["mean_jct_ns"] / 1e6,
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


def run(preset: str = "default", runner=None) -> ExperimentResult:
    p = get_preset(preset)
    runner = runner or serial_runner()
    payloads = runner.run_points("scale", sweep(p), POINT_RUNNER)
    return merge(payloads, p)


def main() -> None:
    run(preset="quick").print_table()


if __name__ == "__main__":
    main()
