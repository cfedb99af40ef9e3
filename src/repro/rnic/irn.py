"""IRN: the representative RNIC-SR transport (Mittal et al., SIGCOMM 2018).

Implements the simplified selective-repeat mechanism the paper analyses
in §2.2:

* the receiver accepts packets out of order (tracked in a bitmap) and
  sends a **SACK** — cumulative ePSN plus the PSN of the OOO arrival —
  on every out-of-order packet;
* the sender enters **loss recovery** on the first SACK, marks as lost
  every unacked/unSACKed packet below a SACKed PSN, and retransmits each
  at most once per recovery episode;
* recovery exits only when the cumulative ACK passes the highest PSN
  outstanding at entry, so a retransmission that is dropped again can
  only be repaired by an **RTO** (Issue #2);
* tail-packet losses generate no SACK at all and likewise wait for the
  RTO; RTO_low is used when few packets are outstanding, RTO_high
  otherwise;
* flow control is a static BDP window (IRN has no CC of its own); DCQCN
  can be plugged in for the §6.3 experiments.

Because the receiver SACKs every OOO arrival, combining IRN with a
packet-level load balancer causes spurious retransmissions (Fig 1) —
reproduced faithfully here.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.rnic.base import QueuePair
from repro.rnic.window import SendState, WindowTransport


class _IrnSendState(SendState):
    """The skeleton's sender bitmap plus the recovery episode."""

    __slots__ = ("rtx_marked", "in_recovery", "recovery_high")

    def __init__(self) -> None:
        super().__init__()
        self.rtx_marked: set[int] = set()   # retransmitted this episode
        self.in_recovery = False
        self.recovery_high = -1


class IrnTransport(WindowTransport):
    """Selective-repeat sender/receiver per the IRN design."""

    name = "irn"
    SendState = _IrnSendState
    count_spurious = True
    _on_data = WindowTransport._on_data_sack

    @property
    def spurious_retransmits(self) -> int:
        return self.stats.spurious_retx

    # -------------------------------------------------------------- sender
    def _rto(self, st: _IrnSendState) -> int:
        outstanding = st.snd_nxt - st.snd_una
        if outstanding <= self.config.rto_low_threshold_pkts:
            return self.config.rto_low_ns
        return self.config.rto_ns

    def _on_rto(self, qp: QueuePair) -> None:
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn and not st.rtx_queue:
            return
        flow = qp.psn_to_message(min(st.snd_una, qp.next_psn - 1)).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        # Retransmit every unacked, unSACKed packet; fresh recovery episode.
        st.in_recovery = True
        st.recovery_high = st.max_sent
        st.rtx_queue.clear()
        st.rtx_queue.extend(psn for psn in range(st.snd_una, st.max_sent + 1)
                            if psn not in st.sacked)
        st.rtx_marked = set(st.rtx_queue)
        st.timer.restart(self._rto(st))
        self._activate(qp)

    def _advance_cumulative(self, qp: QueuePair, st: _IrnSendState,
                            ack_psn: int) -> None:
        new_una = ack_psn + 1
        if new_una <= st.snd_una:
            return
        self._advance_una(qp, st, new_una)
        if st.in_recovery and new_una > st.recovery_high:
            st.in_recovery = False
            st.rtx_marked.clear()
        if new_una >= qp.next_psn and not st.rtx_queue:
            st.timer.cancel()
        else:
            st.timer.restart(self._rto(st))
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        self._advance_cumulative(qp, self._send_state(qp), packet.ack_psn)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        self._advance_cumulative(qp, st, packet.ack_psn)
        sacked_psn = packet.sack_psn
        if sacked_psn < st.snd_una or sacked_psn > st.max_sent:
            return  # stale, or acknowledges a PSN never sent (malformed)
        st.sacked.add(sacked_psn)
        if not st.in_recovery:
            st.in_recovery = True
            st.recovery_high = st.max_sent
            st.rtx_marked = set()
        # Everything below a SACKed PSN that is neither acked nor SACKed is
        # presumed lost — the root cause of spurious retransmissions under
        # packet-level load balancing (§2.2 Issue #1).
        for psn in range(st.snd_una, sacked_psn):
            if psn not in st.sacked and psn not in st.rtx_marked:
                st.rtx_marked.add(psn)
                st.rtx_queue.append(psn)
        if st.rtx_queue:
            self._activate(qp)
