"""Table 4 substitute: hardware state inventory of each RNIC scheme.

The paper synthesizes RNIC-GBN and DCP-RNIC on an Alveo U250 and shows
DCP costs only +1.7% LUTs / +1.1% BRAM.  Without an FPGA toolchain we
report the per-QP protocol-state inventory of our implementations (see
:mod:`repro.analysis.resources`); the preserved claim is the ordering:
DCP's delta over GBN is small while bitmap/timestamp designs pay much
more per-QP SRAM.
"""

from __future__ import annotations

from repro.analysis.resources import table4_rows
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "table4", "RNIC resource inventory (substitute for FPGA synthesis)")
    for row in table4_rows():
        result.rows.append({
            "scheme": row["scheme"],
            "qp_register_bits": row["qp_register_bits"],
            "qp_sram_bits": row["qp_sram_bits"],
            "logic_units": row["logic_units"],
            "logic_delta": f"{row['logic_delta_vs_gbn']:+.1%}",
            "nic_mem_delta": f"{row['nic_delta_vs_gbn']:+.1%}",
        })
    result.notes = ("paper Table 4: DCP-RNIC +1.7% LUT, +0.4% regs, +1.1% "
                    "BRAM over RNIC-GBN")
    return result

