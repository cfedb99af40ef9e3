"""Registry mapping every paper table/figure to its regeneration module.

Every experiment module exports ``merge(payloads, preset, **opts) ->
ExperimentResult``, which folds ordered point payloads into the table,
and a simulated key also ``campaign(preset, **opts) -> dict``, its grid
as a campaign spec (:mod:`repro.campaigns.spec`).
:meth:`ExperimentEntry.points` lowers the spec with the campaign
compiler: without the validator at the three named presets, where a
tier-1 test validates every key's spec, and strictly at a custom
:class:`ScalePreset`.

:func:`run_sweep` is the one driver from points to table: a registry key
(:func:`run_experiment`) and a compiled campaign (its points, and
:func:`~repro.campaigns.compiler.merge_campaign` bound to it) both run
through it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.result import ExperimentResult
from repro.runner.runner import ExperimentRunner, SweepPoint, serial_runner

class ExperimentEntry(NamedTuple):
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
        if not self.simulation:
            return ()
        from repro.campaigns.compiler import compile_campaign, lower_campaign
        p = get_preset(preset)
        spec = self.load_module().campaign(p, **opts)
        named = PRESETS.get(p.name) == p
        return (lower_campaign if named else compile_campaign)(spec, p).points


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


def run_sweep(key: str, points: Sequence[SweepPoint],
              merge: Callable[[list[Any]], ExperimentResult],
              runner: Optional[ExperimentRunner] = None) -> ExperimentResult:
    """Run ``points`` under ``key``, fold their payloads with ``merge``.

    Then attach, per point id in sweep-point order, each payload's
    ``metrics``, ``breakdown`` and ``spans`` blocks to the result's
    fields of those names.  Cached payloads carry their blocks too, so
    a replay exports what the first run did.  ``runner`` defaults to
    serial and uncached.
    """
    runner = runner if runner is not None else serial_runner()
    payloads = runner.run_points(key, points)
    result = merge(payloads)
    for name in ("metrics", "breakdown", "spans"):
        setattr(result, name, {point.point_id: payload[name]
                               for point, payload in zip(points, payloads)
                               if name in payload})
    return result


def run_experiment(key: str, preset: str = "default",
                   runner: Optional[ExperimentRunner] = None,
                   **opts: Any) -> ExperimentResult:
    """Run one experiment by key (e.g. ``fig13``) through :func:`run_sweep`.

    ``runner`` executes the points (default: serial, uncached); ``opts``
    reach both the module's ``campaign`` and its ``merge``.  Only
    robustness takes one: ``chaos``, the scenario it keeps.
    """
    entry = get_entry(key)
    p = get_preset(preset)
    merge = entry.load_module().merge
    return run_sweep(key, entry.points(p, **opts),
                     lambda payloads: merge(payloads, p, **opts), runner)
