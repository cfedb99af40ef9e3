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

Scenarios ride inside each sweep point's ``params`` (see
:mod:`repro.chaos.scenarios`), so they participate in the spec-hash
cache key and the sweep shards over ``--jobs N`` unchanged: serial,
parallel and cache-replayed runs are bit-identical.

The fabric is run in plain-lossy mode (a vanishing ``loss_rate``
disables the PFC baselines' lossless mode): a crashed switch drops
frames whatever the flow-control config, which is precisely the failure
class PFC cannot mask.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.chaos.scenarios import get_scenario, scenario_names
from repro.experiments.presets import ScalePreset, get_preset
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import NetworkSpec, TRANSPORTS as TRANSPORT_PATHS
from repro.runner import ExperimentRunner, SweepPoint, serial_runner

#: Sweep order: baseline first, then escalating failure severity.
SCENARIO_KEYS = ("none", "link_flap", "switch_blackout", "loss_burst",
                 "pfc_storm")
TRANSPORTS = tuple(sorted(TRANSPORT_PATHS))

#: Failure timers shrunk to the scenario timescale (§4.5 timings scaled
#: like everything else in the presets); overrides win over the
#: RTT-derived floors in ``Network._transport_config``.
_TIMERS = {"rto_ns": 400_000, "rto_low_ns": 150_000,
           "coarse_timeout_ns": 400_000}

POINT_RUNNER = "repro.runner.points.simulate_flows"


def _flow_bytes(p: ScalePreset) -> int:
    """Big enough that every scenario's window lands mid-flow."""
    return max(240_000, p.long_flow_bytes // 5)


def _spec(transport: str, p: ScalePreset) -> NetworkSpec:
    # Two switches, one cross cable: every scenario's target is on the
    # only inter-switch path, so no transport can dodge the failure.
    return NetworkSpec(
        transport=transport, topology="testbed", num_hosts=4, cross_links=1,
        lb="ecmp", link_rate=p.link_rate, buffer_bytes=p.buffer_bytes,
        loss_rate=1e-9, seed=29, transport_overrides=dict(_TIMERS))


def _points(p: ScalePreset, scenarios: Sequence[str]) -> list[SweepPoint]:
    size = _flow_bytes(p)
    points = []
    for scenario_key in scenarios:
        scenario = get_scenario(scenario_key)
        for transport in TRANSPORTS:
            params = {
                "flows": [[0, 2, size, 0], [1, 3, size, 10_000]],
                "max_events": 60_000_000,
                "chaos": scenario,
            }
            points.append(SweepPoint(f"{scenario_key}-{transport}",
                                     _spec(transport, p), params))
    return points


def sweep(p: ScalePreset) -> list[SweepPoint]:
    """The full scenario x transport grid."""
    return _points(p, SCENARIO_KEYS)


def _merge(payloads: list, scenarios: Sequence[str]) -> ExperimentResult:
    result = ExperimentResult(
        "robustness",
        "Failure recovery per scenario and transport (chaos campaign)")
    it = iter(payloads)
    for scenario_key in scenarios:
        for transport in TRANSPORTS:
            payload = next(it)
            chaos = payload["chaos"]
            flows = payload["flows"]
            completed = [f for f in flows if f["completed"]]
            goodput = (sum(f["goodput_gbps"] for f in completed)
                       / len(completed)) if completed else 0.0
            result.rows.append({
                "scenario": scenario_key,
                "transport": transport,
                "completed": f"{len(completed)}/{len(flows)}",
                "goodput_gbps": goodput,
                "recovery_us": chaos["recovery_ns"] / 1000.0,
                "retx_storm": chaos["retx_storm_pkts"],
                "dup_pkts": chaos["dup_pkts"],
                "timeouts": chaos["timeouts"],
                "coarse_to": chaos["coarse_timeouts"],
            })
    result.notes = ("recovery_us: first-failure injection to delivery "
                    "resuming (sampled rx_bytes series); scenarios ride the "
                    "spec-hash cache, so serial == --jobs N == replay")
    return result


def merge(payloads: list, p: ScalePreset) -> ExperimentResult:
    """Fold ordered full-grid payloads back into the table."""
    return _merge(payloads, SCENARIO_KEYS)


def run(preset: str = "default",
        runner: Optional[ExperimentRunner] = None,
        chaos: Optional[str] = None) -> ExperimentResult:
    """Run the campaign; ``chaos`` restricts it to one named scenario."""
    p = get_preset(preset)
    runner = runner if runner is not None else serial_runner()
    if chaos is not None:
        if chaos not in scenario_names():
            raise ValueError(f"unknown chaos scenario {chaos!r}; choose "
                             f"from {scenario_names()}")
        scenarios: Sequence[str] = (chaos,)
    else:
        scenarios = SCENARIO_KEYS
    payloads = runner.run_points("robustness", _points(p, scenarios),
                                 POINT_RUNNER)
    return _merge(payloads, scenarios)


def main() -> None:
    run().print_table()


if __name__ == "__main__":
    main()
