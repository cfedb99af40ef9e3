"""Schema validation for exported telemetry files (CI smoke guard).

Validates three kinds of export:

1. **record shape** — every JSONL line is a JSON object of a known
   ``type`` with that type's required keys (see :mod:`repro.obs.export`
   for the documented shapes, including the breakdown family);
2. **metric names** — every name matches the catalog below, which
   enumerates the instruments the instrumented components register.
   An unknown name fails validation, so silently renamed or drive-by
   emit sites are caught the moment CI runs;
3. **Perfetto exports** — a ``--perfetto-out`` file (a single JSON
   object with ``traceEvents``) is checked for the Chrome trace-event
   contract: every event carries ``ph``/``pid``/``tid``, slices and
   instants carry ``ts``, and slices carry a non-negative ``dur``.

Run directly (the file kind is sniffed)::

    python -m repro.obs.schema metrics.jsonl
    python -m repro.obs.schema run-perfetto.json
"""

from __future__ import annotations

import json
import re
import sys
from typing import Iterable

_SWITCH_FIELDS = ("forwarded|trimmed|dropped_congestion|dropped_forced|"
                  "dropped_buffer|ho_enqueued|ho_dropped|acks_dropped|"
                  "ecn_marked")
_FLOW_FIELDS = ("data_pkts_sent|retx_pkts_sent|timeouts|acks_received|"
                "trims_seen|dup_pkts_received")
_RNIC_FIELDS = ("retx_pkts|timeouts|coarse_timeouts|ho_received|ho_turned|"
                "stale_ho|spurious_retx|ooo_drops|tlp_probes|inflight_bytes")

#: Every metric name the instrumented tree can register.  Extend this
#: catalog in the same change that adds an emit/registration site.
KNOWN_METRIC_PATTERNS: tuple[str, ...] = (
    r"engine\.events",
    r"flow\.fct_us",
    rf"flow\.\d+\.(?:{_FLOW_FIELDS})",
    r"link\.[^.\s]+\.(?:delivered_packets|delivered_bytes|dropped_loss|"
    r"dropped_link_down)",
    r"nic\.[^.\s]+\.(?:tx_packets|tx_bytes)",
    r"rifl\.[^.\s]+\.(?:frames|delivered|hop_retx|held_link_down)",
    rf"rnic\.[^.\s]+\.(?:{_RNIC_FIELDS})",
    rf"switch\.[^.\s]+\.(?:{_SWITCH_FIELDS})",
    r"switch\.[^.\s]+\.p\d+\.(?:data_bytes|ctrl_bytes|busy_ns)",
    r"pfc\.[^.\s]+\.(?:pause_frames|resume_frames|paused_ports)",
    r"chaos\.(?:injected|recovered)",
    r"chaos\.link\.[^.\s]+\.down_ns",
    r"chaos\.flow\.\d+\.rx_bytes",
)

_KNOWN = re.compile("|".join(f"(?:{p})" for p in KNOWN_METRIC_PATTERNS))
#: Duplicate registrations get a stable ``#N`` suffix (see
#: ``MetricsRegistry._unique``); strip it before catalog matching.
_DEDUP_SUFFIX = re.compile(r"#\d+$")

_REQUIRED_KEYS = {
    "meta": ("schema", "experiment", "points"),
    "counter": ("experiment", "point", "name", "value"),
    "gauge": ("experiment", "point", "name", "value"),
    "histogram": ("experiment", "point", "name", "bounds", "counts",
                  "total", "sum"),
    "series": ("experiment", "point", "name", "times_ns", "values"),
    "breakdown": ("experiment", "point", "flow", "fct_ns", "components"),
    "campaign": ("experiment", "name", "groups", "points"),
}

#: Component keys a breakdown record may carry
#: (repro.analysis.latency.COMPONENTS).
BREAKDOWN_COMPONENTS = frozenset({
    "queue_ns", "serialization_ns", "propagation_ns", "host_ns",
    "retx_stall_ns", "pause_stall_ns", "reorder_ns"})


def _campaign_group(group: object) -> bool:
    """A header group: ``{"name", "axis"}``, or ``{"name", "axes"}``
    for a zipped group whose axes vary in lockstep."""
    if not isinstance(group, dict) or not isinstance(group.get("name"), str):
        return False
    if "axes" in group:
        axes = group["axes"]
        return ("axis" not in group and isinstance(axes, list)
                and len(axes) >= 2 and all(isinstance(a, str) for a in axes))
    return isinstance(group.get("axis"), str)


def known_metric(name: str) -> bool:
    return _KNOWN.fullmatch(_DEDUP_SUFFIX.sub("", name)) is not None


def validate_record(record: object) -> list[str]:
    """Schema errors for one decoded JSONL record (empty = valid)."""
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    rtype = record.get("type")
    if rtype not in _REQUIRED_KEYS:
        return [f"unknown record type {rtype!r}"]
    errors = [f"{rtype} record missing key {key!r}"
              for key in _REQUIRED_KEYS[rtype] if key not in record]
    if errors:
        return errors
    if rtype in ("counter", "gauge", "histogram", "series"):
        name = record["name"]
        if not known_metric(name):
            errors.append(f"unknown metric name {name!r}")
    if rtype == "counter":
        value = record["value"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"counter {record['name']!r} value {value!r} "
                          "is not a non-negative integer")
    elif rtype == "histogram":
        if len(record["counts"]) != len(record["bounds"]) + 1:
            errors.append(f"histogram {record['name']!r} needs "
                          "len(bounds)+1 counts")
    elif rtype == "series":
        if len(record["times_ns"]) != len(record["values"]):
            errors.append(f"series {record['name']!r} times/values "
                          "length mismatch")
    elif rtype == "campaign":
        groups = record["groups"]
        if not isinstance(groups, list) or not groups:
            errors.append("campaign groups is not a non-empty list")
        else:
            for i, group in enumerate(groups):
                if not _campaign_group(group):
                    errors.append(f"campaign group {i} needs a string "
                                  "'name' and either a string 'axis' or "
                                  "a zipped group's 'axes' (>= 2 strings)")
        points = record["points"]
        if not isinstance(points, list) or not points \
                or not all(isinstance(p, str) for p in points):
            errors.append("campaign points is not a non-empty list "
                          "of point ids")
    elif rtype == "breakdown":
        components = record["components"]
        if not isinstance(components, dict):
            errors.append("breakdown components is not an object")
        else:
            unknown = sorted(set(components) - BREAKDOWN_COMPONENTS)
            if unknown:
                errors.append(f"unknown breakdown components {unknown}")
            negative = sorted(k for k, v in components.items()
                              if isinstance(v, (int, float)) and v < 0)
            if negative:
                errors.append(f"negative breakdown components {negative}")
    return errors


def validate_lines(lines: Iterable[str]) -> list[str]:
    """Validate JSONL content; returns ``"line N: problem"`` strings."""
    errors: list[str] = []
    count = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        count += 1
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {lineno}: not JSON ({exc})")
            continue
        errors.extend(f"line {lineno}: {e}" for e in validate_record(record))
    if count == 0:
        errors.append("file contains no records")
    return errors


def validate_file(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return validate_lines(fh)


# ----------------------------------------------------------------- perfetto
def validate_perfetto(trace: object) -> list[str]:
    """Schema errors for a decoded Chrome trace-event export."""
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no traceEvents list"]
    if not events:
        return ["traceEvents is empty"]
    errors: list[str] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not a JSON object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if key not in event:
                errors.append(f"event {i} ({ph}): missing key {key!r}")
        if ph in ("X", "i") and "ts" not in event:
            errors.append(f"event {i} ({ph}): missing key 'ts'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i} (X): dur {dur!r} is not a "
                              "non-negative number")
    return errors


def validate_path(path: str) -> list[str]:
    """Validate ``path``, sniffing JSONL vs a Perfetto trace object."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError:
            obj = None
        if isinstance(obj, dict) and "traceEvents" in obj:
            return validate_perfetto(obj)
    return validate_lines(text.splitlines())


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema "
              "<metrics.jsonl | perfetto.json>", file=sys.stderr)
        return 2
    errors = validate_path(argv[0])
    if errors:
        for e in errors[:50]:
            print(e, file=sys.stderr)
        if len(errors) > 50:
            print(f"... and {len(errors) - 50} more", file=sys.stderr)
        print(f"{argv[0]}: INVALID ({len(errors)} problems)", file=sys.stderr)
        return 1
    print(f"{argv[0]}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
