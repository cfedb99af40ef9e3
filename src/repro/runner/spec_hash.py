"""Canonical hashing of experiment sweep points.

A cache key must be stable across processes, Python versions and dict
insertion orders, so everything is normalised to a canonical JSON form
first: dict keys sorted, tuples collapsed to lists, floats rendered by
``repr`` (shortest round-trip form since 3.1).  The key is the SHA-256
of that canonical text, prefixed with the experiment and point ids so a
cache directory stays human-navigable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.experiments.spec import NetworkSpec

_SAFE_SCALARS = (str, int, float, bool, type(None))


def canonicalize(obj: Any) -> Any:
    """Normalise ``obj`` to a JSON-safe canonical structure.

    Tuples become lists (JSON has no tuple), dict keys are coerced to
    strings and sorted, and anything non-JSON raises rather than being
    silently stringified — a spec field that cannot round-trip must not
    make it into a cache key.
    """
    if isinstance(obj, _SAFE_SCALARS):
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            if not isinstance(key, (str, int)):
                raise TypeError(f"unhashable cache-key dict key {key!r}")
            out[str(key)] = canonicalize(obj[key])
        return out
    if isinstance(obj, NetworkSpec):
        return canonicalize(obj.to_dict())
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def spec_digest(spec: NetworkSpec, extra: Any = None) -> str:
    """SHA-256 hex digest of a spec plus optional extra parameters."""
    payload = {"spec": spec, "extra": extra}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def cache_key(experiment: str, point_id: str, spec: NetworkSpec,
              extra: Any = None) -> str:
    """Filesystem-safe cache key for one sweep point.

    ``extra`` carries any non-spec inputs that influence the result
    (flow layout, event budgets, ...); two points differing only in
    ``extra`` must hash differently.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "-"
                   for c in f"{experiment}.{point_id}")
    return f"{safe}-{spec_digest(spec, extra)}"
