"""Timeout-only loss recovery (NVIDIA Spectrum/SuperNIC-style, §6.3).

The receiver tolerates out-of-order arrival (Write-Only conversion) and
returns cumulative ACKs, but there is no loss *notification* of any
kind: the only recovery trigger is the RTO.  On expiry the sender
retransmits every unacknowledged packet — it cannot know which of them
actually arrived, so duplicates are common.  Fig 17 shows this scheme's
goodput collapsing as the loss rate grows.
"""

from __future__ import annotations

from repro.rnic.base import QueuePair
from repro.rnic.window import WindowTransport


class TimeoutTransport(WindowTransport):
    """Order-tolerant reception + RTO-only recovery: the skeleton plus an RTO."""

    name = "timeout"

    def _on_rto(self, qp: QueuePair) -> None:
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        self.count_timeout(qp.psn_to_message(st.snd_una).flow)
        qp.cc.on_timeout(self.sim.now)
        st.rtx_queue.clear()
        st.rtx_queue.extend(range(st.snd_una, st.max_sent + 1))
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)
