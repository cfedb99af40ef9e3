"""Registry mapping every paper table/figure to its regeneration module.

Every experiment module exports what the runner needs to shard it:

* ``merge(payloads, preset, **opts) -> ExperimentResult`` — fold ordered
  point payloads back into the table (an analytic table gets none);
* a simulated key's ``sweep(preset, **opts)`` — its points (for every
  key but ``robustness``, a campaign spec's), each of which the runner
  executes through :func:`repro.runner.points.simulate_flows`.

:func:`run_experiment` is the one driver from spec to table.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.experiments.presets import get_preset
from repro.experiments.result import ExperimentResult
from repro.runner.runner import ExperimentRunner, SweepPoint, serial_runner

@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper result."""

    key: str
    module: str
    paper_ref: str
    description: str
    simulation: bool          # False -> analytic, runs instantly

    def load_module(self) -> Any:
        return importlib.import_module(self.module)

    def points(self, preset: Any, **opts: Any) -> Sequence[SweepPoint]:
        """The key's sweep points at ``preset`` (none when analytic)."""
        return (self.load_module().sweep(get_preset(preset), **opts)
                if self.simulation else ())


REGISTRY: dict[str, ExperimentEntry] = {
    e.key: e for e in (
        ExperimentEntry("table1", "repro.experiments.table1_lossless_distance",
                        "Table 1", "Max PFC-lossless distance per ASIC", False),
        ExperimentEntry("table2", "repro.experiments.table2_requirements",
                        "Table 2", "R1-R4 qualification matrix", False),
        ExperimentEntry("table3", "repro.experiments.table3_memory",
                        "Table 3", "Packet-tracking memory overhead", False),
        ExperimentEntry("table4", "repro.experiments.table4_resources",
                        "Table 4", "RNIC resource inventory", False),
        ExperimentEntry("table5", "repro.experiments.table5_ho_loss",
                        "Table 5", "HO loss under severe incast", True),
        ExperimentEntry("fig1", "repro.experiments.fig1_spurious_retx",
                        "Fig 1", "IRN spurious retransmissions vs DCP", True),
        ExperimentEntry("fig2", "repro.experiments.fig2_rto",
                        "Fig 2", "Excessive RTOs in IRN vs DCP", True),
        ExperimentEntry("fig7", "repro.experiments.fig7_packet_rate",
                        "Fig 7", "Packet rate vs OOO degree", False),
        ExperimentEntry("fig8", "repro.experiments.fig8_basic_perf",
                        "Fig 8", "Throughput/latency: DCP vs GBN vs TCP", True),
        ExperimentEntry("fig10", "repro.experiments.fig10_loss_recovery",
                        "Fig 10", "Loss recovery: DCP vs CX5 goodput", True),
        ExperimentEntry("fig11", "repro.experiments.fig11_ar_unequal",
                        "Fig 11", "AR over unequal paths", True),
        ExperimentEntry("fig12", "repro.experiments.fig12_testbed_ai",
                        "Fig 12", "Testbed AllReduce/AllToAll JCT", True),
        ExperimentEntry("fig13", "repro.experiments.fig13_websearch",
                        "Fig 13", "WebSearch FCT slowdown", True),
        ExperimentEntry("fig14", "repro.experiments.fig14_ai_sim",
                        "Fig 14", "Simulated collectives JCT", True),
        ExperimentEntry("fig15", "repro.experiments.fig15_crossdc",
                        "Fig 15", "Cross-DC FCT slowdown", True),
        ExperimentEntry("fig16", "repro.experiments.fig16_incast_cc",
                        "Fig 16", "Incast w/ and w/o CC", True),
        ExperimentEntry("fig17", "repro.experiments.fig17_loss_schemes",
                        "Fig 17", "Recovery schemes vs loss rate", True),
        ExperimentEntry("robustness", "repro.experiments.robustness",
                        "§4.5", "Failure recovery: chaos scenario sweep", True),
        ExperimentEntry("longhaul", "repro.experiments.longhaul",
                        "§6.1", "10 km long-haul goodput", True),
        ExperimentEntry("deepdive", "repro.experiments.deepdive_control_plane",
                        "§6.3", "Queue-level view of the lossless CP", True),
        ExperimentEntry("scale", "repro.experiments.scale",
                        "§6.2", "Events vs hosts, packet vs hybrid "
                        "fidelity", True),
    )
}


def get_entry(key: str) -> ExperimentEntry:
    try:
        return REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown experiment {key!r}; "
                         f"choose from {sorted(REGISTRY)}") from None


def attach_runner_telemetry(result: ExperimentResult,
                            runner: ExperimentRunner) -> ExperimentResult:
    """Attach the metrics and breakdowns of the points ``runner`` just
    ran.  Shared by :func:`run_experiment` and the campaign executor, so
    every path hands back the same result object whether or not an
    export flag was set."""
    result.metrics = dict(runner.last_metrics)
    result.breakdown = dict(runner.last_breakdowns)
    return result


def run_experiment(key: str, preset: str = "default",
                   runner: Optional[ExperimentRunner] = None,
                   **opts: Any) -> ExperimentResult:
    """Run one experiment by key (e.g. ``fig13``): sweep, run, merge.

    ``runner`` executes the points (default: serial, uncached); ``opts``
    reach both the module's ``sweep`` and its ``merge`` (robustness's
    ``chaos``, fig13/fig14's ``fidelity``).
    """
    entry = get_entry(key)
    p = get_preset(preset)
    runner = runner if runner is not None else serial_runner()
    payloads = runner.run_points(key, entry.points(p, **opts))
    return attach_runner_telemetry(
        entry.load_module().merge(payloads, p, **opts), runner)
