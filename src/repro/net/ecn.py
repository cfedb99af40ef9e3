"""RED/ECN marking used by DCQCN.

Standard WRED on the instantaneous data-queue length: below ``kmin``
no marks, above ``kmax`` every ECN-capable packet is marked, linear
probability in between.  This is the marking scheme the DCQCN paper
assumes and what the reproduction's CC module reacts to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.packet import Packet


@dataclass(frozen=True)
class RedProfile:
    """ECN marking thresholds, in bytes of data-queue occupancy."""

    kmin_bytes: int
    kmax_bytes: int
    pmax: float = 1.0

    def __post_init__(self) -> None:
        if self.kmin_bytes < 0 or self.kmax_bytes < self.kmin_bytes:
            raise ValueError("require 0 <= kmin <= kmax")
        if not 0.0 <= self.pmax <= 1.0:
            raise ValueError("pmax must be in [0, 1]")


class EcnMarker:
    """Marks packets CE according to a :class:`RedProfile`."""

    def __init__(self, profile: RedProfile, rng: random.Random | None = None) -> None:
        self.profile = profile
        self.rng = rng or random.Random(0xECD)

    def mark_probability(self, queue_bytes: int) -> float:
        p = self.profile
        if queue_bytes <= p.kmin_bytes:
            return 0.0
        if queue_bytes >= p.kmax_bytes:
            return 1.0
        span = p.kmax_bytes - p.kmin_bytes
        return p.pmax * (queue_bytes - p.kmin_bytes) / span

    def maybe_mark(self, packet: Packet, queue_bytes: int) -> bool:
        """Mark ``packet`` CE with the RED probability; returns True if marked."""
        if not packet.ecn_capable:
            return False
        prob = self.mark_probability(queue_bytes)
        if prob > 0.0 and (prob >= 1.0 or self.rng.random() < prob):
            packet.ecn_ce = True
            return True
        return False


def default_red_profile(rate_bits_per_ns: float) -> RedProfile:
    """DCQCN-style thresholds scaled with line rate.

    The DCQCN paper used Kmin=5 KB / Kmax=200 KB at 40 Gbps; we scale
    linearly with the link rate.
    """
    scale = rate_bits_per_ns / 40.0
    return RedProfile(kmin_bytes=max(2_000, int(5_000 * scale)),
                      kmax_bytes=max(20_000, int(200_000 * scale)),
                      pmax=0.01 if scale < 1 else 0.1)
