"""Table 3: packet-tracking memory overhead of the three schemes."""

from __future__ import annotations

from repro.analysis.models import table3_rows
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

NUM_QPS = 10_000

def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "table3", "Memory overhead for packet tracking (400G x 10us intra-DC)")
    for row in table3_rows(num_qps=NUM_QPS):
        lo, hi = row["per_qp_bytes"]
        mlo, mhi = row["aggregate_mb"]
        result.rows.append({
            "scheme": row["scheme"],
            "per_qp": f"{lo}B" if lo == hi else f"{lo}B~{hi}B",
            f"{NUM_QPS//1000}k_qps": (f"{mlo:.2g}MB" if mlo == mhi
                                      else f"{mlo:.2g}MB~{mhi:.2g}MB"),
        })
    result.notes = "paper: 320B / 80-320B / 32B per QP; 3MB / 0.76-3MB / 0.3MB at 10k QPs"
    return result

