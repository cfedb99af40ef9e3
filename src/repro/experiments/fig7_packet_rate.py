"""Fig 7: theoretical packet rate vs out-of-order degree (300 MHz clock)."""

from __future__ import annotations

from repro.analysis.models import theoretical_packet_rate_mpps
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult

OOO_DEGREES = tuple(range(0, 449, 64))
CLOCK_MHZ = 300.0

def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    result = ExperimentResult(
        "fig7", f"Theoretical packet rate (Mpps) at {CLOCK_MHZ:.0f} MHz")
    for ooo in OOO_DEGREES:
        result.rows.append({
            "ooo_degree": ooo,
            "bdp_bitmap_mpps": theoretical_packet_rate_mpps("bdp", ooo,
                                                            CLOCK_MHZ),
            "dcp_mpps": theoretical_packet_rate_mpps("dcp", ooo, CLOCK_MHZ),
            "linked_chunk_mpps": theoretical_packet_rate_mpps(
                "linked_chunk", ooo, CLOCK_MHZ),
        })
    result.notes = ("flat ~50 Mpps for BDP-bitmap and DCP; linked chunk "
                    "decays with OOO degree (paper Fig 7)")
    return result

