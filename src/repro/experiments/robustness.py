"""Robustness: failure scenario x transport recovery sweep (§4.5).

The paper's coarse-grained timeout exists to survive link/switch
crashes — failures no loss-notification machinery (trimming, SACK,
NAK) can report, because the notification path itself is gone.  This
experiment runs every transport through the chaos scenario library
(link flaps, a switch blackout, a loss burst, a PFC-storm window) on a
two-switch fabric whose single inter-switch cable makes every failure
bite, and reports:

* goodput per flow (post-recovery, whole-run average),
* time-to-recover goodput (from the sampled delivery time series),
* retransmission-storm size and duplicate-delivery counts,
* RTO / coarse-timeout fire counts.

The grid is one campaign spec, ``chaos.scenario`` x ``spec.transport``,
so each point's scenario rides in its ``params`` and the spec-hash
cache key: serial, ``--jobs N`` and replayed runs are bit-identical.

The fabric is run in plain-lossy mode (a vanishing ``loss_rate``
disables the PFC baselines' lossless mode): a crashed switch drops
frames whatever the flow-control config, which is precisely the failure
class PFC cannot mask.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.presets import ScalePreset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import TRANSPORTS as TRANSPORT_PATHS

#: Sweep order: baseline first, then escalating failure severity.
SCENARIO_KEYS = ("none", "link_flap", "switch_blackout", "loss_burst",
                 "pfc_storm")
TRANSPORTS = tuple(sorted(TRANSPORT_PATHS))

#: Failure timers shrunk to the scenario timescale (§4.5 timings scaled
#: like everything else in the presets); overrides win over the
#: RTT-derived floors in ``Network._transport_config``.
_TIMERS = {"rto_ns": 400_000, "rto_low_ns": 150_000,
           "coarse_timeout_ns": 400_000}


def _scenarios(chaos: Optional[str]) -> Sequence[str]:
    return SCENARIO_KEYS if chaos is None else (chaos,)


def campaign(p: ScalePreset, chaos: Optional[str] = None) -> dict:
    """The scenario x transport grid; ``chaos`` keeps one scenario of
    :data:`repro.chaos.scenarios.SCENARIOS`."""
    # Big enough that every scenario's window lands mid-flow.
    size = max(240_000, p.long_flow_bytes // 5)
    return {
        "name": "robustness",
        # Two switches, one cross cable: every scenario's target is on
        # the only inter-switch path, so no transport can dodge the
        # failure.  num_leaves/num_spines keep NetworkSpec's defaults.
        "topology": {"topology": "testbed", "num_hosts": 4,
                     "cross_links": 1, "lb": "ecmp", "loss_rate": 1e-9,
                     "num_leaves": 4, "num_spines": 4,
                     "transport_overrides": dict(_TIMERS)},
        "workload": [{"kind": "flows", "name": "pair",
                      "flows": [[0, 2, size, 0], [1, 3, size, 10_000]]}],
        "chaos": {"scenario": "none"},
        # One-letter group names keep point ids short (``s-none.t-dcp``):
        # every exported metrics record carries its point's id.
        "groups": [
            {"name": "s", "axis": "chaos.scenario",
             "values": list(_scenarios(chaos))},
            {"name": "t", "axis": "spec.transport",
             "values": list(TRANSPORTS)},
        ],
        "seed": 29,
    }


def merge(payloads: list, p: ScalePreset,
          chaos: Optional[str] = None) -> ExperimentResult:
    """Fold ordered payloads back into the table."""
    result = ExperimentResult(
        "robustness",
        "Failure recovery per scenario and transport (chaos campaign)")
    it = iter(payloads)
    for scenario_key in _scenarios(chaos):
        for transport in TRANSPORTS:
            payload = next(it)
            summary = payload["chaos"]
            flows = payload["flows"]
            completed = [f for f in flows if f["completed"]]
            goodput = (sum(f["goodput_gbps"] for f in completed)
                       / len(completed)) if completed else 0.0
            result.rows.append({
                "scenario": scenario_key,
                "transport": transport,
                "completed": f"{len(completed)}/{len(flows)}",
                "goodput_gbps": goodput,
                "recovery_us": summary["recovery_ns"] / 1000.0,
                "retx_storm": summary["retx_storm_pkts"],
                "dup_pkts": summary["dup_pkts"],
                "timeouts": summary["timeouts"],
                "coarse_to": summary["coarse_timeouts"],
            })
    result.notes = ("recovery_us: first-failure injection to delivery "
                    "resuming (sampled rx_bytes series); scenarios ride the "
                    "spec-hash cache, so serial == --jobs N == replay")
    return result

