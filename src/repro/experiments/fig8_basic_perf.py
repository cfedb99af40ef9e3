"""Fig 8: basic validation — throughput and latency of DCP vs GBN vs TCP.

Two directly connected NICs (the paper's perftest setup): a
long-running flow of 512 KB messages for throughput, a single 64 B
message for latency.  The claim to preserve: DCP keeps hardware
offloading performance (throughput and latency on par with RNIC-GBN),
and both RNICs beat the software TCP stack by a wide margin.

The grid is one campaign spec: scheme x a zipped ``probe`` group that
moves the window and the flow together (``tput``: one bulk flow of
512 KB messages in a 4-message window; ``lat``: one 64 B message).
"""

from __future__ import annotations

from repro.analysis.fct import goodput_cell, incomplete_note
from repro.campaigns.compiler import compile_campaign
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.runner import SweepPoint

SCHEMES = ("gbn", "dcp", "tcp")

_RATE = 100.0        # direct-connect runs are cheap; keep the paper's 100 Gbps
_MESSAGE_BYTES = 512_000


def sweep(p: ScalePreset) -> tuple[SweepPoint, ...]:
    """Two points per scheme: one bulk flow, one 64 B latency probe."""
    messages = max(2, p.long_flow_bytes // _MESSAGE_BYTES)
    return compile_campaign({
        "name": "fig8",
        # Two NICs on a cable: scale fields keep NetworkSpec's defaults.
        "topology": {"topology": "direct", "num_hosts": 2,
                     "link_rate": _RATE, "host_link_delay_ns": 500,
                     "num_leaves": 4, "num_spines": 4,
                     "buffer_bytes": 4_000_000},
        "workload": [{"kind": "flows", "name": "probe"}],
        "groups": [
            {"name": "scheme", "axis": "spec.transport",
             "values": list(SCHEMES)},
            {"name": "probe",
             "axes": ["spec.window_bytes", "workload.probe.flows"],
             "values": [
                 [max(4 * _MESSAGE_BYTES, 262_144),
                  [[0, 1, messages * _MESSAGE_BYTES, 0]]],
                 [None, [[0, 1, 64, 0]]]],
             "labels": ["tput", "lat"]},
        ],
        "sim": {"max_events": 500_000_000},
    }, p).points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig8", "Basic validation: throughput (Gbps) and latency (us)")
    it = iter(payloads)
    for scheme in SCHEMES:
        tput, lat = next(it), next(it)
        result.rows.append({
            "scheme": scheme,
            "throughput_gbps": goodput_cell(tput),
            "latency_us": (incomplete_note(lat)
                           or lat["flows"][0]["fct_ns"] / 1_000),
        })
    result.notes = ("paper: DCP ~ GBN ~ 97 Gbps / ~2 us; TCP far worse on "
                    "both axes")
    return result
