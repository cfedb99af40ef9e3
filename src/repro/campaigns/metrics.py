"""Metric columns a campaign may select for its result table.

Every column is a pure function of one sweep-point payload (the
:func:`repro.runner.points.simulate_flows` dict), so campaign tables are
computed identically whether the payload came from a worker process, the
inline path or the result cache — the same contract the runner's merge
functions rely on.

The chaos columns (``recovery_us``, ``retx_storm``, ``coarse_to``) read
the payload's ``chaos`` block and render ``""`` when the campaign has no
``chaos`` block.  Scenario ``"none"`` is the empty scenario, as under
``--chaos none``: its points report a ``chaos`` block (no injection, so
zero recovery), and a campaign that varies ``chaos.scenario`` over it
merges into one rectangular table of numbers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.fct import percentile


def _completed(payload: dict) -> list[dict]:
    return [f for f in payload["flows"] if f["completed"]]


def _fct_percentile(payload: dict, p: float) -> float:
    fcts = [f["fct_ns"] / 1000.0 for f in _completed(payload)]
    return percentile(fcts, p) if fcts else float("nan")


def _goodput(payload: dict) -> float:
    done = _completed(payload)
    if not done:
        return 0.0
    return sum(f["goodput_gbps"] for f in done) / len(done)


def _chaos_field(payload: dict, field: str, scale: float = 1.0) -> Any:
    chaos = payload.get("chaos")
    if not chaos:
        return ""
    return chaos[field] / scale if scale != 1.0 else chaos[field]


#: column name -> payload reducer.  Extend alongside the docs table in
#: EXPERIMENTS.md "Campaigns".
METRIC_COLUMNS: dict[str, Callable[[dict], Any]] = {
    "flows": lambda p: len(p["flows"]),
    "completed": lambda p: f"{len(_completed(p))}/{len(p['flows'])}",
    "goodput_gbps": _goodput,
    "fct_p50_us": lambda p: _fct_percentile(p, 50),
    "fct_p95_us": lambda p: _fct_percentile(p, 95),
    "fct_p99_us": lambda p: _fct_percentile(p, 99),
    "retx": lambda p: sum(f["retx_pkts"] for f in p["flows"]),
    "timeouts": lambda p: sum(f["timeouts"] for f in p["flows"]),
    "dup_pkts": lambda p: sum(f["dup_pkts_received"] for f in p["flows"]),
    "events": lambda p: p["events"],
    "end_us": lambda p: p["end_ns"] / 1000.0,
    # chaos columns (empty string when the campaign has no chaos block)
    "recovery_us": lambda p: _chaos_field(p, "recovery_ns", scale=1000.0),
    "retx_storm": lambda p: _chaos_field(p, "retx_storm_pkts"),
    "coarse_to": lambda p: _chaos_field(p, "coarse_timeouts"),
}
