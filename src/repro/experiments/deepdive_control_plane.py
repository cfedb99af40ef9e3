"""Deep dive (§6.3 narrative): watch the control plane absorb an incast.

Reads the exact data-queue and control-queue peaks at the incast
victim's leaf port after an N-to-1 burst lands, and reports:

* peak data-queue depth vs the trim threshold (trimming engages);
* peak control-queue depth vs its capacity (HO headroom);
* HO conservation (trims == HO packets enqueued at the trimming hop);
* whether any HO packet was lost.

This is the microscopic view behind Table 5's robustness claim.  Its
one point runs in :func:`run_point`, which reads the victim port's
queue high-water marks (``max_bytes_seen``, raised when a packet waits).
"""

from __future__ import annotations

from typing import Any

from repro.campaigns.compiler import compile_campaign
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint

POINT_RUNNER = "repro.experiments.deepdive_control_plane.run_point"

RECEIVER = 0


#: Bytes each incast sender posts.
FLOW_BYTES = 100_000


def sweep(p: ScalePreset) -> tuple[SweepPoint, ...]:
    """One point: the preset's incast fan-in of senders to host 0."""
    senders = [h for h in range(p.num_hosts)
               if h != RECEIVER][:p.incast_fan_in]
    return compile_campaign({
        "name": "deepdive",
        "topology": {"transport": "dcp", "lb": "ar", "topology": "clos",
                     "buffer_bytes": p.buffer_bytes // 4},
        "workload": [{"kind": "flows", "name": "incast",
                      "flows": [[s, RECEIVER, FLOW_BYTES, 0]
                                for s in senders]}],
        "groups": [{"name": "incast", "axis": "spec.incast_radix",
                    "values": [p.incast_fan_in]}],
        "sim": {"max_events": 100_000_000},
        "seed": 131,
    }, p).points


def run_point(spec: NetworkSpec, params: dict) -> dict[str, Any]:
    """Run the incast; report the victim port's two queue peaks."""
    from repro.runner.points import PointTelemetry
    with PointTelemetry(params) as tel:
        net = tel.network(spec)
        victim_leaf = net.fabric.switches[0]
        victim_port = victim_leaf.ports[RECEIVER]   # its down port on leaf 0
        flows = net.open_rows(params["flows"])
        net.run_until_flows_done(max_events=int(params["max_events"]))
        cfg = victim_leaf.config
        return {
            "peak_data_bytes": victim_port.queues[0].max_bytes_seen,
            "peak_ctrl_bytes": victim_port.queues[1].max_bytes_seen,
            "trim_threshold_bytes": cfg.trim_threshold_bytes,
            "control_queue_bytes": cfg.control_queue_bytes,
            "trimmed": net.fabric.switch_stats_sum("trimmed"),
            "victim_ho_enqueued": victim_leaf.stats.ho_enqueued,
            "ho_lost": net.fabric.switch_stats_sum("ho_dropped"),
            "completed": sum(1 for f in flows if f.completed),
            "flows": len(flows),
            "timeouts": sum(f.stats.timeouts for f in flows),
            **tel.report(net, flows),
        }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    (pl,) = payloads
    rows = (
        ("peak data queue (KB)", pl["peak_data_bytes"] / 1000,
         f"trim threshold {pl['trim_threshold_bytes'] / 1000} KB"),
        ("peak control queue (KB)", pl["peak_ctrl_bytes"] / 1000,
         f"capacity {pl['control_queue_bytes'] / 1000} KB"),
        ("packets trimmed", pl["trimmed"],
         f"{pl['victim_ho_enqueued']} HO enqueued at the victim leaf"),
        ("HO packets lost", pl["ho_lost"],
         "paper: 'HO packet loss is very rare'"),
        ("flows completed", pl["completed"],
         f"of {pl['flows']}; timeouts {pl['timeouts']}"),
    )
    return ExperimentResult(
        "deepdive",
        f"Control plane under a {p.incast_fan_in}-to-1 incast",
        rows=[{"metric": m, "value": v, "reference": r}
              for m, v, r in rows])
