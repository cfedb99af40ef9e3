"""JSONL export of metrics payloads and flow breakdowns.

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
    A zipped group carries ``"axes": [A1, A2, ...]`` instead of
    ``"axis"``: its axes take their values in lockstep.

``metrics_by_point`` maps point id -> the ``metrics`` payload produced
by :meth:`repro.obs.registry.MetricsRegistry.to_payload`; for non-sweep
experiments the CLI uses the single pseudo-point ``"run"``.

:func:`metrics_records` is the record API and the reference encoding:
``_dump(record)`` per record.  :func:`write_metrics_jsonl` writes the
same bytes without a Python call per record.  Counter and gauge records
(all but a few dozen lines of a sweep's file) are filled into two
``%`` templates per point, the escaped name and the number's ``repr``
being the only per-record parts.  A block the templates cannot render
exactly (a ``bool``, ``None``, NaN/±inf or other value, or a
non-``str`` name) goes through ``_dump`` record by record, like the
meta, histogram and series records.  Lines are written one point at a
time, so the file is never held in memory.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, TextIO

#: Schema version stamped into every meta record.
SCHEMA_VERSION = 1


#: One encoder for every record: ``json.dumps`` with non-default options
#: builds a new ``JSONEncoder`` per call, once per exported line.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: What :func:`write_metrics_jsonl` renders from a template: ``str``
#: names, exact ``int``/``float`` values, and no ``repr`` that ``json``
#: spells differently (``NaN``, ``Infinity``, ``-Infinity``).
_STR = frozenset({str})
_NUMBER = frozenset({int, float})
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


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
    """Write one experiment's metrics to ``fh``; returns lines written.

    The bytes are those of ``_dump(r) + "\\n"`` for each record ``r`` of
    :func:`metrics_records` (see the module docstring).
    """
    fh.write(_dump({"type": "meta", "schema": SCHEMA_VERSION,
                    "experiment": experiment,
                    "points": list(metrics_by_point)}) + "\n")
    n = 1
    # ``sort_keys`` orders a scalar record's keys experiment, name,
    # point, type, value.  The templates are ``%`` formats: a literal
    # ``%`` in an id is doubled.
    head = ('{"experiment":' + _dump(experiment)).replace("%", "%%")
    for point, payload in metrics_by_point.items():
        base = {"experiment": experiment, "point": point}
        tail = (',"name":%s,"point":' + _dump(point).replace("%", "%%")
                + ',"type":"')
        lines = []
        for kind in ("counter", "gauge"):
            scalars = payload.get(kind + "s", {})
            # ``repr`` of an exact int or float is how ``json`` renders
            # it, unless the float is NaN or ±inf.
            texts = (list(map(repr, scalars.values()))
                     if set(map(type, scalars.values())) <= _NUMBER
                     else None)
            if (texts is not None and set(map(type, scalars)) <= _STR
                    and _NON_FINITE.isdisjoint(texts)):
                template = head + tail + kind + '","value":%s}\n'
                lines += map(template.__mod__,
                             zip(map(encode_basestring_ascii, scalars),
                                 texts))
            else:
                lines += [_dump({"type": kind, "name": name, "value": value,
                                 **base}) + "\n"
                          for name, value in scalars.items()]
        for name, hist in payload.get("histograms", {}).items():
            lines.append(_dump({"type": "histogram", "name": name, **hist,
                                **base}) + "\n")
        for name, series in payload.get("series", {}).items():
            lines.append(_dump({"type": "series", "name": name, **series,
                                **base}) + "\n")
        fh.write("".join(lines))
        n += len(lines)
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


# --------------------------------------------------------------- breakdowns
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
