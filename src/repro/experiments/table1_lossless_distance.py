"""Table 1: maximum PFC-lossless distance of commodity switching ASICs."""

from __future__ import annotations

from repro.analysis.models import ASIC_CATALOG, lossless_distance_km
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "table1", "Max lossless communication distance with PFC (Eq. 1)")
    for asic in ASIC_CATALOG:
        result.rows.append({
            "asic": asic.name,
            "capacity": f"{asic.ports}x{asic.port_gbps}G",
            "buffer_mb": asic.buffer_mb,
            "buffer_per_port_per_100g_mb": asic.buffer_per_port_per_100g_mb(),
            "max_km_1_queue": lossless_distance_km(asic, queues=1),
            "max_km_8_queues": lossless_distance_km(asic, queues=8) * 1000,  # meters
        })
    result.notes = "last column is meters (paper prints 8-queue row in m)"
    return result

