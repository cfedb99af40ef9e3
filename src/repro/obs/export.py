"""JSONL export of metrics payloads and trace records.

One JSON object per line, ``sort_keys=True`` with compact separators so
the byte stream is deterministic for a given input.  The documented
record shapes (validated by :mod:`repro.obs.schema`):

``{"type": "meta", "schema": 1, "experiment": K, "points": [...]}``
    First line per experiment: the point ids that follow, in order.
``{"type": "counter", "experiment": K, "point": P, "name": N, "value": V}``
``{"type": "gauge", ...,  "value": V}``
    Final gauge reading at collection time.
``{"type": "histogram", ..., "bounds": [...], "counts": [...],
   "total": T, "sum": S}``
    ``counts`` has ``len(bounds) + 1`` entries (last = overflow).
``{"type": "series", ..., "times_ns": [...], "values": [...]}``
    A sampled gauge time series (present when sampling was enabled).
``{"type": "trace", "experiment": K, "point": P, "time_ns": T,
   "category": C, "actor": A, "detail": {...}}``
    One :class:`repro.sim.trace.TraceRecord` (``--trace-out`` files).
``{"type": "span", ..., "start_ns": S, "end_ns": E, "kind": K,
   "flow_id": F, "uid": U, "actor": A}``
    One :class:`repro.obs.spans.SpanTracker` interval.
``{"type": "breakdown", ..., "flow": F, "fct_ns": T, "completed": B,
   "components": {...}}``
    One flow's FCT attribution
    (:func:`repro.analysis.latency.flow_breakdown`); written into
    ``--metrics-out`` files when ``--breakdown`` is active.
``{"type": "campaign", "experiment": K, "name": N,
   "groups": [{"name": G, "axis": A}, ...], "points": [...]}``
    Header for a campaign run (``dcp-experiment campaign <name>``):
    the campaign's parameter grid and the point ids it lowered to, so
    a consumer can pivot the flat metrics records back into the grid.

``metrics_by_point`` maps point id -> the ``metrics`` payload produced
by :meth:`repro.obs.registry.MetricsRegistry.to_payload`; for non-sweep
experiments the CLI uses the single pseudo-point ``"run"``.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, TextIO

from repro.sim.trace import Tracer

#: Schema version stamped into every meta record.
SCHEMA_VERSION = 1


#: One encoder for every record: ``json.dumps`` with non-default options
#: builds a new ``JSONEncoder`` per call, once per exported line.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# ------------------------------------------------------------------ metrics
def metrics_records(experiment: str,
                    metrics_by_point: dict[str, dict]) -> Iterator[dict]:
    """Flatten per-point metrics payloads into JSONL record dicts."""
    yield {"type": "meta", "schema": SCHEMA_VERSION, "experiment": experiment,
           "points": list(metrics_by_point)}
    for point, payload in metrics_by_point.items():
        base = {"experiment": experiment, "point": point}
        for name, value in payload.get("counters", {}).items():
            yield {"type": "counter", "name": name, "value": value, **base}
        for name, value in payload.get("gauges", {}).items():
            yield {"type": "gauge", "name": name, "value": value, **base}
        for name, hist in payload.get("histograms", {}).items():
            yield {"type": "histogram", "name": name, **hist, **base}
        for name, series in payload.get("series", {}).items():
            yield {"type": "series", "name": name, **series, **base}


def write_metrics_jsonl(fh: TextIO, experiment: str,
                        metrics_by_point: dict[str, dict]) -> int:
    """Write one experiment's metrics to ``fh``; returns lines written."""
    n = 0
    for record in metrics_records(experiment, metrics_by_point):
        fh.write(_dump(record) + "\n")
        n += 1
    return n


def campaign_record(experiment: str, name: str, groups: list[dict],
                    point_ids: list[str]) -> dict[str, Any]:
    """The campaign header record (plain args, so :mod:`repro.campaigns`
    is only imported by callers that actually run campaigns)."""
    return {"type": "campaign", "experiment": experiment, "name": name,
            "groups": groups, "points": list(point_ids)}


def write_campaign_jsonl(fh: TextIO, experiment: str, name: str,
                         groups: list[dict], point_ids: list[str]) -> int:
    """Write a campaign header record to ``fh``; returns lines written."""
    fh.write(_dump(campaign_record(experiment, name, groups, point_ids))
             + "\n")
    return 1


# ------------------------------------------------------------------- traces
def tracer_payload(tracer: Tracer) -> dict[str, Any]:
    """JSON-safe snapshot of a tracer (rides inside sweep-point payloads)."""
    return {
        "records": [[r.time_ns, r.category, r.actor, dict(r.detail)]
                    for r in tracer.records],
        "dropped_records": tracer.dropped_records,
    }


def trace_records(experiment: str,
                  traces_by_point: dict[str, dict]) -> Iterator[dict]:
    """Flatten per-point tracer payloads into JSONL record dicts."""
    yield {"type": "meta", "schema": SCHEMA_VERSION, "experiment": experiment,
           "points": list(traces_by_point),
           "dropped_records": {p: t.get("dropped_records", 0)
                               for p, t in traces_by_point.items()}}
    for point, payload in traces_by_point.items():
        for time_ns, category, actor, detail in payload.get("records", []):
            yield {"type": "trace", "experiment": experiment, "point": point,
                   "time_ns": time_ns, "category": category, "actor": actor,
                   "detail": detail}


def write_trace_jsonl(fh: TextIO, experiment: str,
                      traces_by_point: dict[str, dict]) -> int:
    """Write one experiment's trace records to ``fh``; returns lines."""
    n = 0
    for record in trace_records(experiment, traces_by_point):
        fh.write(_dump(record) + "\n")
        n += 1
    return n


# -------------------------------------------------------- spans / breakdowns
def span_records(experiment: str,
                 spans_by_point: dict[str, dict]) -> Iterator[dict]:
    """Flatten per-point span payloads into JSONL record dicts."""
    for point, payload in spans_by_point.items():
        for start_ns, end_ns, kind, flow_id, uid, actor in \
                payload.get("spans", []):
            yield {"type": "span", "experiment": experiment, "point": point,
                   "start_ns": start_ns, "end_ns": end_ns, "kind": kind,
                   "flow_id": flow_id, "uid": uid, "actor": actor}


def breakdown_records(experiment: str,
                      breakdowns_by_point: dict[str, list]) -> Iterator[dict]:
    """Flatten per-point flow breakdowns into JSONL record dicts."""
    from repro.analysis.latency import COMPONENTS
    for point, flows in breakdowns_by_point.items():
        for entry in flows:
            yield {"type": "breakdown", "experiment": experiment,
                   "point": point, "flow": entry.get("flow_id", -1),
                   "fct_ns": entry.get("fct_ns", 0),
                   "completed": bool(entry.get("completed", True)),
                   "residual_ns": entry.get("residual_ns", 0),
                   "components": {c: entry.get(c, 0) for c in COMPONENTS}}


def write_breakdown_jsonl(fh: TextIO, experiment: str,
                          breakdowns_by_point: dict[str, list]) -> int:
    """Write one experiment's breakdown records; returns lines written."""
    n = 0
    for record in breakdown_records(experiment, breakdowns_by_point):
        fh.write(_dump(record) + "\n")
        n += 1
    return n
