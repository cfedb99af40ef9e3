"""Fig 15: cross-datacenter scenarios (100 km and 1000 km spine links).

WebSearch at load 0.5 with leaf-spine propagation set to 500 us / 5 ms.
Lossless schemes (PFC, MP-RDMA) need their buffers inflated to cover
the PFC headroom of the huge BDP (600 MB / 6 GB in the paper); IRN and
DCP keep the normal 32 MB.  Shape: DCP's advantage *grows* with
distance (paper: 46-51% lower tail FCT than IRN, ~81-95% vs the
lossless schemes).
"""

from __future__ import annotations

from repro.analysis.fct import overall_percentiles, slowdowns
from repro.experiments.fig13_websearch import SCHEMES as _FIG13_SCHEMES
from repro.experiments.fig13_websearch import websearch_point
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.runner import SweepPoint

#: (label, spine one-way delay ns) — scaled-down analogues of 100/1000 km.
DISTANCES = (("100km", 500_000), ("1000km", 5_000_000))
LOAD = 0.5

#: fig13's scheme list plus the reliability-scheme frontier: SDR's
#: selective repeat and RIFL's hop-local repair are exactly the designs
#: whose recovery cost should *not* scale with end-to-end distance.
SCHEMES = _FIG13_SCHEMES + (("sdr-ar", "sdr", "ar"),
                            ("rifl-ecmp", "rifl", "ecmp"))

POINT_RUNNER = "repro.runner.points.simulate_flows"


def _buffer_bytes(transport: str, p: ScalePreset, spine_delay: int) -> int:
    """Lossless schemes get PFC-headroom-sized buffers, like the paper's
    600 MB / 6 GB upgrades; lossy schemes keep theirs."""
    buffer = p.buffer_bytes
    if transport in ("gbn", "mp_rdma"):
        # PFC headroom is *additional* reserved space on top of the
        # normal shared buffer (the paper grows 32 MB to 600 MB / 6 GB
        # for 100 / 1000 km).
        buffer += int(2.5 * p.link_rate / 8 * spine_delay)
    return buffer


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """One point per (distance, scheme)."""
    return [websearch_point(
                f"{dist_label}-{label}", transport, lb, LOAD, p, seed=91,
                spine_delay_ns=spine_delay,
                buffer_bytes=_buffer_bytes(transport, p, spine_delay))
            for dist_label, spine_delay in DISTANCES
            for label, transport, lb in SCHEMES]


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig15", "Cross-DC FCT slowdown (WebSearch 0.5)")
    it = iter(payloads)
    for dist_label, spine_delay in DISTANCES:
        for label, transport, _lb in SCHEMES:
            payload = next(it)
            sds = slowdowns(payload)
            stats = overall_percentiles(sds)
            result.rows.append({
                "distance": dist_label,
                "scheme": label,
                "flows": len(sds),
                "p50": stats["p50"],
                "p95": stats["p95"],
                "buffer_mb": _buffer_bytes(transport, p, spine_delay) / 1e6,
                "timeouts": sum(f["timeouts"] for f in payload["flows"]),
            })
    result.notes = ("paper: DCP ~89/81/46% lower tail than PFC/MP-RDMA/IRN "
                    "at 100 km; gap grows at 1000 km")
    return result
