"""Layer map: which source path belongs to which per-layer bucket.

A layer is a directory of ``src/repro``; two single files are split out
of their directory because an optimisation is likely to move them on
their own (``sim/fidelity.py``: the fluid tier; ``net/packet.py``:
packet construction and the pool).  Everything that is not under
``src/repro`` — the interpreter, the standard library, builtins and the
benchmark's own files — is the ``python`` layer.
"""

from __future__ import annotations

import os

#: Most specific prefix first: the first match wins.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("sim/fidelity.py", "sim.fidelity"),
    ("net/packet.py", "net.packet"),
    ("sim/", "sim"),
    ("net/", "net"),
    ("rnic/", "rnic"),
    ("core/", "core"),
    ("tcpstack/", "tcpstack"),
    ("cc/", "cc"),
    ("workload/", "workload"),
    ("experiments/", "experiments"),
    ("runner/", "runner"),
    ("obs/", "obs"),
    ("chaos/", "chaos"),
    ("campaigns/", "campaigns"),
    ("analysis/", "analysis"),
)
OUTSIDE = "python"
LAYERS: tuple[str, ...] = (
    tuple(name for _prefix, name in LAYER_PREFIXES) + (OUTSIDE,))

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    _head, marker, rel = filename.rpartition(_MARKER)
    if not marker:
        return OUTSIDE
    rel = rel.replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return OUTSIDE


def bucket_profile(stats: dict) -> dict[str, dict[str, float]]:
    """Fold ``cProfile`` stats into ``{layer: {self_s, calls, share}}``.

    ``stats`` is ``pstats.Stats(...).stats``: ``{(file, line, func):
    (primitive_calls, calls, tottime, cumtime, callers)}``.  ``tottime``
    excludes callees, so the buckets partition the profiled time.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, *_where), (_cc, calls, tottime, *_rest) in stats.items():
        bucket = out[layer_of(filename)]
        bucket["self_s"] += tottime
        bucket["calls"] += calls
    total = sum(b["self_s"] for b in out.values())
    for bucket in out.values():
        bucket["share"] = bucket["self_s"] / total if total > 0 else 0.0
    return out


def calls_of(stats: dict, layer: str, func: str) -> int:
    """Total calls of the function ``func`` defined in ``layer``."""
    return sum(calls for (filename, _line, name), (_cc, calls, *_rest)
               in stats.items()
               if name == func and layer_of(filename) == layer)
