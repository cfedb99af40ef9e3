"""Swift/Timely-style delay-based congestion control.

Google's Swift (SIGCOMM 2020) drives a congestion *window* from end-to-
end delay: each ACK echoes the data packet's send timestamp, the sender
computes an RTT sample and compares it against a target delay.  Below
target the window grows additively; above target it shrinks
multiplicatively, scaled by how far the sample overshoots, with the
decrease applied at most once per RTT.  On an RTO the window collapses
to its floor.

The point of carrying it here (§6.3's "CC is orthogonal" claim, and the
reliability-frontier sweeps): the SDR/RIFL transports should not be
judged only under DCQCN or a static BDP window.  Swift needs no switch
support at all — no ECN marking, no trimming — which makes it the
natural partner for link-layer (RIFL) and software selective-repeat
(SDR) reliability.

The implementation is deliberately the textbook core: target-vs-sample
AIMD on a fractional window, no topology-scaled target (the harness
passes a target derived from the fabric's base RTT), no flow scaling.
``window_bytes`` stays ``None`` — the window is dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.base import CongestionControl


@dataclass(frozen=True)
class SwiftParams:
    """Swift knobs (names follow the paper's Table 1 roles)."""

    target_delay_ns: int = 25_000      # fabric target delay
    mtu_bytes: int = 1000
    initial_cwnd_bytes: int = 125_000
    min_cwnd_bytes: int = 2_000        # floor: ~2 MTUs keeps the ACK clock
    max_cwnd_bytes: int = 1 << 24
    ai_bytes: int = 1000               # additive increase per RTT of ACKs
    beta: float = 0.8                  # multiplicative-decrease gain
    max_mdf: float = 0.5               # max fractional decrease per event


class SwiftCc(CongestionControl):
    """Delay-target AIMD window (Swift/Timely family)."""

    paces = False
    wants_ack = False
    wants_rtt = True
    # Dynamic window: transports call available_window() per pull.
    window_bytes = None

    def __init__(self, params: SwiftParams) -> None:
        self.params = params
        self.cwnd = float(max(params.min_cwnd_bytes,
                              min(params.initial_cwnd_bytes,
                                  params.max_cwnd_bytes)))
        self.last_rtt_ns = 0
        self.rtt_samples = 0
        self.decreases = 0
        self._last_decrease_ns = -(1 << 62)

    def available_window(self, outstanding_bytes: int) -> int:
        return max(0, int(self.cwnd) - outstanding_bytes)

    def on_rtt(self, rtt_ns: int, now_ns: int) -> None:
        p = self.params
        self.rtt_samples += 1
        self.last_rtt_ns = rtt_ns
        if rtt_ns < p.target_delay_ns:
            # Additive increase, scaled per sample so one RTT's worth of
            # ACKs (cwnd/mtu of them) grows the window by ~ai_bytes.
            self.cwnd += p.ai_bytes * p.mtu_bytes / self.cwnd
        elif now_ns - self._last_decrease_ns >= rtt_ns:
            # Multiplicative decrease proportional to the overshoot,
            # clamped at max_mdf, at most once per RTT.
            self._last_decrease_ns = now_ns
            self.decreases += 1
            ratio = 1.0 - p.beta * (rtt_ns - p.target_delay_ns) / rtt_ns
            self.cwnd *= max(ratio, 1.0 - p.max_mdf)
        if self.cwnd < p.min_cwnd_bytes:
            self.cwnd = float(p.min_cwnd_bytes)
        elif self.cwnd > p.max_cwnd_bytes:
            self.cwnd = float(p.max_cwnd_bytes)

    def on_timeout(self, now_ns: int) -> None:
        """RTO: collapse to the floor (Swift's retransmit-timeout rule)."""
        self.cwnd = float(self.params.min_cwnd_bytes)
        self._last_decrease_ns = now_ns
