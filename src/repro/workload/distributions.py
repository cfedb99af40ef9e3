"""Flow-size distributions.

The paper's general workload is WebSearch (DCTCP): "60% of flows below
200 KB, 37% between 200 KB and 10 MB, 3% exceeding 10 MB" (§6.2).  We
encode it as twenty equal-probability (5%) buckets whose representative
sizes are exactly the x-axis bins of Fig 13, so the reproduction's
per-bin statistics line up with the paper's plots bin-for-bin.
"""

from __future__ import annotations

import random
from typing import NamedTuple

#: Fig 13's twenty flow-size bins (KB), one per 5% probability bucket.
WEBSEARCH_BINS_KB: tuple[int, ...] = (
    3, 6, 9, 20, 24, 29, 40, 50, 61, 73,
    117, 218, 614, 1021, 1507, 1991, 3494, 5109, 8674, 29995,
)


class EmpiricalSizeDistribution(NamedTuple):
    """Equal-probability bucket distribution with within-bucket jitter.

    ``scale`` divides every size — used to shrink workloads so the
    pure-Python simulator finishes in reasonable wall time while keeping
    the distribution's shape (DESIGN.md scale note).
    """

    bins_bytes: tuple[int, ...]
    scale: float = 1.0
    jitter: float = 0.25   # +/- fraction of uniform spread inside a bucket

    def mean_bytes(self) -> float:
        return sum(self.bins_bytes) / len(self.bins_bytes) / self.scale

    def sample(self, rng: random.Random) -> int:
        base = rng.choice(self.bins_bytes)
        if self.jitter > 0:
            spread = rng.uniform(1 - self.jitter, 1 + self.jitter)
        else:
            spread = 1.0
        return max(1, int(base * spread / self.scale))


def websearch(scale: float = 1.0, jitter: float = 0.25) -> EmpiricalSizeDistribution:
    """The WebSearch workload with sizes in bytes."""
    return EmpiricalSizeDistribution(
        bins_bytes=tuple(kb * 1000 for kb in WEBSEARCH_BINS_KB),
        scale=scale, jitter=jitter)


def websearch_class(size_bytes: int, scale: float = 1.0) -> str:
    """The small/medium/large classification of Fig 1b."""
    actual = size_bytes * scale
    if actual <= 50_000:
        return "small"
    if actual <= 2_000_000:
        return "medium"
    return "large"


class FixedSizeDistribution(NamedTuple):
    """Degenerate distribution (incast senders, collectives)."""

    size_bytes: int

    def mean_bytes(self) -> float:
        return float(self.size_bytes)

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes
