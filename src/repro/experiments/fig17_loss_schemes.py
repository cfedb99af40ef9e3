"""Fig 17: loss-recovery efficiency across every registry transport.

Single long flow under ECMP with forced switch drops (trims for DCP).
Paper shape to preserve among the original four schemes: DCP stays
near line rate, RACK-TLP trails DCP (retransmission delayed one RTT),
IRN falls behind RACK-TLP as retransmitted-packet losses push it into
RTOs, and the timeout-only scheme collapses sharply with the loss
rate.  The sweep now covers the whole transport registry — the
reliability-scheme frontier adds SDR (selective repeat with per-hole
timers: loss costs retransmissions but no RTOs) and RIFL (hop-by-hop
link-layer retx: the end-to-end transport never sees the loss at all,
paying only hop round trips).

This experiment declares its (loss-rate x scheme) grid as a campaign
spec — Fig 10's, over every scheme — so ``repro.runner`` can shard it
across processes and cache each goodput measurement by spec hash.
"""

from __future__ import annotations

from repro.analysis.fct import goodput_cell
from repro.experiments.fig10_loss_recovery import (LOSS_RATES,
                                                   long_flow_campaign)
from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import TRANSPORTS

#: Every transport in the registry, so a newly registered scheme lands
#: in this comparison automatically (alphabetical: column order only).
SCHEMES = tuple(sorted(TRANSPORTS))


def campaign(p: ScalePreset) -> dict:
    """One point per (loss rate, scheme): a lone long flow's goodput."""
    return long_flow_campaign("fig17", p, SCHEMES, 17, 120_000_000)


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    """Fold ordered point payloads back into the paper's table."""
    result = ExperimentResult(
        "fig17", "Goodput (Gbps) vs loss rate per recovery scheme")
    it = iter(payloads)
    for loss in LOSS_RATES:
        row = {"loss_rate": f"{loss:.2%}"}
        for scheme in SCHEMES:
            row[f"{scheme}_gbps"] = goodput_cell(next(it))
        result.rows.append(row)
    result.notes = ("paper: DCP up to 22%/98%/99% above RACK-TLP/IRN/"
                    "timeout; timeout degrades sharply with loss")
    return result

