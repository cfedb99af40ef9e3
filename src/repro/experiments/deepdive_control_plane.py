"""Deep dive (§6.3 narrative): watch the control plane absorb an incast.

Reads the exact data-queue and control-queue peaks at the incast
victim's leaf port after an N-to-1 burst lands, and reports:

* peak data-queue depth vs the trim threshold (trimming engages);
* peak control-queue depth vs its capacity (HO headroom);
* HO conservation (trims == HO packets enqueued at the trimming hop);
* whether any HO packet was lost.

This is the microscopic view behind Table 5's robustness claim.  Its
one point runs through :func:`~repro.runner.points.simulate_flows`; the
merge reads the victim port's entry of the payload's ``queues`` block
(exact high-water marks, ``max_bytes_seen``, raised when a packet
waits) and the victim leaf's ``ho_enqueued`` counter.
"""

from __future__ import annotations

from repro.analysis.fct import switch_total
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

RECEIVER = 0
#: The receiver's leaf and its down port to the receiver.
VICTIM_LEAF = "leaf0"
VICTIM_PORT = f"{VICTIM_LEAF}.p{RECEIVER}"

#: Bytes each incast sender posts.
FLOW_BYTES = 100_000


def campaign(p: ScalePreset) -> dict:
    """One point: the preset's incast fan-in of senders to host 0."""
    senders = [h for h in range(p.num_hosts)
               if h != RECEIVER][:p.incast_fan_in]
    return {
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
    }


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    (pl,) = payloads
    data_peak, trim_at, ctrl_peak, ctrl_cap = pl["queues"][VICTIM_PORT]
    flows = pl["flows"]
    ho_enqueued = pl["metrics"]["counters"][
        f"switch.{VICTIM_LEAF}.ho_enqueued"]
    rows = (
        ("peak data queue (KB)", data_peak / 1000,
         f"trim threshold {trim_at / 1000} KB"),
        ("peak control queue (KB)", ctrl_peak / 1000,
         f"capacity {ctrl_cap / 1000} KB"),
        ("packets trimmed", switch_total(pl, "trimmed"),
         f"{ho_enqueued} HO enqueued at the victim leaf"),
        ("HO packets lost", switch_total(pl, "ho_dropped"),
         "paper: 'HO packet loss is very rare'"),
        ("flows completed", sum(1 for f in flows if f["completed"]),
         f"of {len(flows)}; timeouts {sum(f['timeouts'] for f in flows)}"),
    )
    return ExperimentResult(
        "deepdive",
        f"Control plane under a {p.incast_fan_in}-to-1 incast",
        rows=[{"metric": m, "value": v, "reference": r}
              for m, v, r in rows])
