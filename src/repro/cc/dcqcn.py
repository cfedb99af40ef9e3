"""DCQCN congestion control (Zhu et al., SIGCOMM 2015).

The paper integrates DCQCN into DCP and IRN for the high-load
experiments (§6.3).  This is the standard rate-based algorithm:

* the receiver echoes ECN marks as CNPs (at most one per
  ``TransportConfig.cnp_interval_ns``);
* on a CNP the sender cuts the current rate ``Rc`` multiplicatively by
  ``alpha/2`` and remembers the pre-cut rate as the target ``Rt``;
* ``alpha`` is an EWMA of observed congestion, decayed every
  ``alpha_timer`` when no CNP arrives;
* rate recovery alternates *fast recovery* (Rc -> Rt) and *additive* /
  *hyper* increase stages driven by a timer and a byte counter.

Rates are in bits/ns (== Gbps).  Pacing turns the rate into an
inter-packet gap; a window cap bounds memory like real RNICs do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.base import CongestionControl


@dataclass(frozen=True)
class DcqcnParams:
    """DCQCN knobs; defaults follow the paper's NS3 configuration style."""

    line_rate: float = 100.0            # bits/ns
    min_rate: float = 0.1
    g: float = 1 / 16                   # alpha EWMA gain
    alpha_timer_ns: int = 55_000        # alpha decay period
    increase_timer_ns: int = 55_000     # rate-increase period
    increase_bytes: int = 10 * 1024     # byte-counter stage size
    rai: float = 5.0                    # additive increase (bits/ns)
    rhai: float = 50.0                  # hyper increase
    fast_recovery_rounds: int = 5
    window_bytes: int = 1 << 30         # optional cap on outstanding bytes


class DcqcnCc(CongestionControl):
    """Sender-side DCQCN state machine for one QP."""

    paces = True
    wants_ack = True

    def __init__(self, params: DcqcnParams) -> None:
        self.p = params
        self.window_bytes = params.window_bytes
        self.rate = params.line_rate      # Rc
        self.target_rate = params.line_rate  # Rt
        self.alpha = 1.0
        self._last_alpha_update_ns = 0
        self._last_increase_ns = 0
        self._bytes_since_increase = 0
        self._timer_stage = 0
        self._byte_stage = 0
        self.cnps_received = 0

    # ----------------------------------------------------------- feedback
    def on_cnp(self, now_ns: int) -> None:
        self.cnps_received += 1
        self._update_alpha(now_ns, congested=True)
        self.target_rate = self.rate
        self.rate = max(self.p.min_rate, self.rate * (1 - self.alpha / 2))
        self._timer_stage = 0
        self._byte_stage = 0
        self._bytes_since_increase = 0
        self._last_increase_ns = now_ns

    def on_ack(self, acked_bytes: int, now_ns: int) -> None:
        self._update_alpha(now_ns, congested=False)
        self._bytes_since_increase += acked_bytes
        progressed = False
        while self._bytes_since_increase >= self.p.increase_bytes:
            self._bytes_since_increase -= self.p.increase_bytes
            self._byte_stage += 1
            progressed = True
        while now_ns - self._last_increase_ns >= self.p.increase_timer_ns:
            self._last_increase_ns += self.p.increase_timer_ns
            self._timer_stage += 1
            progressed = True
        if progressed:
            self._raise_rate()

    def on_timeout(self, now_ns: int) -> None:
        # A timeout is a strong congestion signal; halve toward min rate.
        self.target_rate = self.rate
        self.rate = max(self.p.min_rate, self.rate / 2)

    # ----------------------------------------------------------- internals
    def _update_alpha(self, now_ns: int, congested: bool) -> None:
        # Decay alpha for every elapsed alpha-timer period without a CNP.
        elapsed = now_ns - self._last_alpha_update_ns
        periods = elapsed // self.p.alpha_timer_ns
        if periods > 0:
            for _ in range(min(int(periods), 64)):
                self.alpha *= (1 - self.p.g)
            self._last_alpha_update_ns += periods * self.p.alpha_timer_ns
        if congested:
            self.alpha = (1 - self.p.g) * self.alpha + self.p.g

    def _raise_rate(self) -> None:
        stage = min(self._timer_stage, self._byte_stage)
        if stage < self.p.fast_recovery_rounds:
            # Fast recovery: halve the gap to the target rate.
            self.rate = (self.rate + self.target_rate) / 2
        else:
            extra = stage - self.p.fast_recovery_rounds
            if extra < self.p.fast_recovery_rounds:
                self.target_rate = min(self.p.line_rate,
                                       self.target_rate + self.p.rai)
            else:
                self.target_rate = min(self.p.line_rate,
                                       self.target_rate + self.p.rhai)
            self.rate = (self.rate + self.target_rate) / 2
        self.rate = min(self.rate, self.p.line_rate)

    # ------------------------------------------------------------- sending
    def available_window(self, outstanding_bytes: int) -> int:
        return max(0, self.p.window_bytes - outstanding_bytes)

    def pacing_delay_ns(self, packet_bytes: int) -> int:
        if self.rate >= self.p.line_rate:
            return 0
        return max(0, int(packet_bytes * 8 / self.rate))
