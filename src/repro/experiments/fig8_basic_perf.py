"""Fig 8: basic validation — throughput and latency of DCP vs GBN vs TCP.

Two directly connected NICs (the paper's perftest setup): a
long-running flow of 512 KB messages for throughput, a single 64 B
message for latency.  The claim to preserve: DCP keeps hardware
offloading performance (throughput and latency on par with RNIC-GBN),
and both RNICs beat the software TCP stack by a wide margin.

Declared as six sweep points — (scheme x {throughput, latency}) — so
``repro.runner`` can parallelise and cache them.
"""

from __future__ import annotations

from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec
from repro.runner import SweepPoint

SCHEMES = ("gbn", "dcp", "tcp")

POINT_RUNNER = "repro.runner.points.simulate_flows"

_RATE = 100.0        # direct-connect runs are cheap; keep the paper's 100 Gbps
_MESSAGE_BYTES = 512_000


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """Two points per scheme: one bulk flow, one 64 B latency probe."""
    messages = max(2, p.long_flow_bytes // _MESSAGE_BYTES)
    points = []
    for scheme in SCHEMES:
        tput_spec = NetworkSpec(
            transport=scheme, topology="direct", num_hosts=2,
            link_rate=_RATE, host_link_delay_ns=500,
            window_bytes=max(4 * _MESSAGE_BYTES, 262_144))
        points.append(SweepPoint(
            f"{scheme}-tput", tput_spec,
            {"flows": [[0, 1, messages * _MESSAGE_BYTES, 0]],
             "max_events": 500_000_000}))
        lat_spec = NetworkSpec(
            transport=scheme, topology="direct", num_hosts=2,
            link_rate=_RATE, host_link_delay_ns=500)
        points.append(SweepPoint(
            f"{scheme}-lat", lat_spec,
            {"flows": [[0, 1, 64, 0]], "max_events": 500_000_000}))
    return points


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig8", "Basic validation: throughput (Gbps) and latency (us)")
    it = iter(payloads)
    for scheme in SCHEMES:
        tput, lat = next(it)["flows"][0], next(it)["flows"][0]
        for kind, rec in (("throughput", tput), ("latency", lat)):
            if not rec["completed"]:
                raise RuntimeError(f"{scheme}: {kind} flow did not complete")
        result.rows.append({
            "scheme": scheme,
            "throughput_gbps": tput["goodput_gbps"],
            "latency_us": lat["fct_ns"] / 1_000,
        })
    result.notes = ("paper: DCP ~ GBN ~ 97 Gbps / ~2 us; TCP far worse on "
                    "both axes")
    return result

