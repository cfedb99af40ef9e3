"""FCT/JCT statistics: percentiles, slowdown binning, CDFs.

These helpers turn flow results into the rows the paper's figures plot:
per-size-bin P50/P95/P99 FCT slowdown over ``(size_bytes, slowdown)``
pairs (Fig 13, 15, 16), FCT CDFs (Fig 14b/d) and goodput of a
:class:`~repro.rnic.base.Flow` (Fig 10, 17).  :func:`slowdowns` and
:func:`switch_total` read a :func:`repro.runner.points.simulate_flows`
payload back in a figure's ``merge``; nothing here needs the simulator
loaded, so a cache replay does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.workload.distributions import WEBSEARCH_BINS_KB

if TYPE_CHECKING:
    from repro.rnic.base import Flow


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("p must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    # This form is exact when ordered[lo] == ordered[hi], keeping
    # percentiles monotone in p even with repeated float values.
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass(frozen=True)
class BinStat:
    """Slowdown statistics for one flow-size bin."""

    bin_kb: int
    count: int
    p50: float
    p95: float
    p99: float
    mean: float


def _nearest_bin(size_bytes: int, bins_kb: Sequence[int], scale: float) -> int:
    """Map a (possibly scaled-down) flow size to its nominal paper bin."""
    nominal_kb = size_bytes * scale / 1000
    best = min(bins_kb, key=lambda b: abs(math.log(nominal_kb / b))
               if nominal_kb > 0 else float("inf"))
    return best


def slowdown_bins(slowdowns: Iterable[tuple[int, float]],
                  bins_kb: Sequence[int] = WEBSEARCH_BINS_KB,
                  scale: float = 1.0) -> list[BinStat]:
    """Group (size_bytes, slowdown) pairs into the paper's size bins."""
    grouped: dict[int, list[float]] = {}
    for size_bytes, sd in slowdowns:
        grouped.setdefault(_nearest_bin(size_bytes, bins_kb, scale),
                           []).append(sd)
    stats = []
    for bin_kb in bins_kb:
        vals = grouped.get(bin_kb)
        if not vals:
            continue
        stats.append(BinStat(bin_kb=bin_kb, count=len(vals),
                             p50=percentile(vals, 50),
                             p95=percentile(vals, 95),
                             p99=percentile(vals, 99),
                             mean=sum(vals) / len(vals)))
    return stats


def overall_percentiles(slowdowns: Iterable[tuple[int, float]]
                        ) -> dict[str, float]:
    """P50/P95/P99/mean of the slowdowns of (size_bytes, slowdown)
    pairs."""
    vals = [sd for _f, sd in slowdowns]
    if not vals:
        return {"p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
    return {"p50": percentile(vals, 50), "p95": percentile(vals, 95),
            "p99": percentile(vals, 99), "mean": sum(vals) / len(vals)}


def slowdowns(payload: dict) -> list[tuple[int, float]]:
    """``(size_bytes, slowdown)`` per completed flow of a
    :func:`~repro.runner.points.simulate_flows` payload, in posting
    order; the slowdown is the FCT over the empty-fabric ideal, floored
    at 1."""
    return [(r["size_bytes"], max(1.0, r["fct_ns"] / r["ideal_fct_ns"]))
            for r in payload["flows"] if r["completed"]]


def switch_total(payload: dict, field: str) -> int:
    """A :class:`~repro.net.switch.SwitchStats` field summed over every
    switch of the point (its ``switch.<name>.<field>`` counters)."""
    return sum(value for name, value in payload["metrics"]["counters"].items()
               if name.startswith("switch.") and name.endswith("." + field))


def cdf_points(values: Sequence[float], points: int = 100
               ) -> list[tuple[float, float]]:
    """(value, cumulative probability) pairs for CDF plots."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    step = max(1, n // points)
    out = [(ordered[i], (i + 1) / n) for i in range(0, n, step)]
    if out[-1][1] < 1.0:
        out.append((ordered[-1], 1.0))
    return out


def goodput_gbps(flow: Flow) -> float:
    """Application goodput of a completed flow in Gbps."""
    fct = flow.fct_ns()
    if fct <= 0:
        raise ValueError("flow completed instantaneously?")
    return flow.size_bytes * 8 / fct


def retransmission_ratio(flow: Flow) -> float:
    """Retransmitted packets over the packets the flow needed."""
    total = flow.stats.data_pkts_sent
    if total == 0:
        return 0.0
    return flow.stats.retx_pkts_sent / total


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one hog.

    Used to quantify how evenly concurrent flows share the fabric
    (e.g. the Fig 11 unequal-path experiment).
    """
    if not values:
        raise ValueError("fairness of empty sequence")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return total * total / (len(values) * squares)
