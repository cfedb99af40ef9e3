"""RACK-TLP loss detection (RFC 8985) adapted to an RNIC model (§6.3).

Google Falcon introduces RACK-TLP to tolerate reordering without
spurious retransmissions.  The algorithm:

* the sender timestamps every transmission (including retransmissions);
* on each (S)ACK it advances ``rack_ts``, the send-timestamp of the most
  recently *delivered* packet, and estimates the RTT;
* a packet is declared lost when it was sent more than one
  *reordering window* (~= min RTT) before ``rack_ts`` and is still
  unacknowledged — i.e. loss detection is delayed by one RTT;
* a **tail-loss probe** retransmits the last outstanding packet after
  ``PTO = 2 x SRTT`` of silence to elicit SACKs for tail losses;
* an RTO remains as the last resort.

The per-packet timestamp memory is exactly the overhead the paper
argues makes RACK-TLP unattractive for hardware offload; the resource
model in :mod:`repro.analysis.resources` accounts for it.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.rnic.base import QueuePair, RestartableTimer
from repro.rnic.window import SendState, WindowTransport


class _RackSendState(SendState):
    """The skeleton's sender state (``timer`` is the RTO) plus RACK's
    per-packet timestamps, RTT estimate and its two extra timers."""

    __slots__ = ("sent_ts", "rack_ts", "srtt", "min_rtt", "rack_timer",
                 "tlp_timer", "tlp_probes")

    def __init__(self) -> None:
        super().__init__()
        self.sent_ts: dict[int, int] = {}
        self.rack_ts = -1
        self.srtt = 0
        self.min_rtt = 1 << 60
        self.rack_timer: Optional[RestartableTimer] = None
        self.tlp_timer: Optional[RestartableTimer] = None
        self.tlp_probes = 0


class RackTlpTransport(WindowTransport):
    """RACK-TLP sender with an IRN-style SACKing receiver."""

    name = "rack_tlp"
    SendState = _RackSendState
    _on_data = WindowTransport._on_data_sack

    def _new_send_state(self, qp: QueuePair) -> _RackSendState:
        st = super()._new_send_state(qp)
        st.rack_timer = RestartableTimer(self.sim,
                                         lambda: self._rack_sweep(qp))
        st.tlp_timer = RestartableTimer(self.sim, lambda: self._on_tlp(qp))
        return st

    # -------------------------------------------------------------- sender
    def _on_transmit(self, qp: QueuePair, st: _RackSendState, psn: int,
                     packet: Packet) -> None:
        st.sent_ts[psn] = self.sim.now  # per-packet timestamp memory (the cost)
        self._arm_timers(qp, st)

    def _reo_wnd(self, st: _RackSendState) -> int:
        if st.min_rtt == 1 << 60:
            return self.config.rto_low_ns
        return st.min_rtt

    def _pto(self, st: _RackSendState) -> int:
        if st.srtt == 0:
            return self.config.rto_low_ns
        return 2 * st.srtt

    def _arm_timers(self, qp: QueuePair, st: _RackSendState) -> None:
        if st.snd_una < qp.next_psn or st.rtx_queue:
            st.tlp_timer.restart(self._pto(st))
            if not st.timer.armed:
                st.timer.restart(self.config.rto_ns)
        else:
            st.tlp_timer.cancel()
            st.timer.cancel()
            st.rack_timer.cancel()

    def _on_delivery(self, st: _RackSendState, psn: int) -> None:
        """Record delivery of ``psn``: RTT sample + rack_ts advance."""
        ts = st.sent_ts.get(psn)
        if ts is None:
            return
        rtt = self.sim.now - ts
        st.min_rtt = min(st.min_rtt, rtt)
        st.srtt = rtt if st.srtt == 0 else (7 * st.srtt + rtt) // 8
        st.rack_ts = max(st.rack_ts, ts)

    def _rack_sweep(self, qp: QueuePair) -> None:
        """Mark packets lost: sent one reo_wnd before rack_ts, unacked."""
        st = self._send_state(qp)
        reo = self._reo_wnd(st)
        next_check: Optional[int] = None
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn in st.sacked or psn in st.rtx_queued:
                continue
            ts = st.sent_ts.get(psn)
            if ts is None:
                continue
            deadline = ts + reo
            if deadline <= st.rack_ts:
                st.rtx_queue.append(psn)
                st.rtx_queued.add(psn)
            elif st.rack_ts >= 0:
                remaining = deadline - st.rack_ts
                next_check = remaining if next_check is None else min(next_check,
                                                                      remaining)
        if st.rtx_queue:
            self._activate(qp)
        if next_check is not None:
            st.rack_timer.restart(max(1, next_check))

    def _on_tlp(self, qp: QueuePair) -> None:
        """Tail-loss probe: resend the highest outstanding packet."""
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        probe = min(st.max_sent, qp.next_psn - 1)
        while probe >= st.snd_una and probe in st.sacked:
            probe -= 1
        if probe >= st.snd_una and probe not in st.rtx_queued:
            st.rtx_queue.append(probe)
            st.rtx_queued.add(probe)
            st.tlp_probes += 1
            self.stats.tlp_probes += 1
            self._activate(qp)
        st.tlp_timer.restart(self._pto(st))

    def _on_rto(self, qp: QueuePair) -> None:
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn not in st.sacked and psn not in st.rtx_queued:
                st.rtx_queue.append(psn)
                st.rtx_queued.add(psn)
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _advance(self, qp: QueuePair, st: _RackSendState, ack_psn: int) -> None:
        new_una = ack_psn + 1
        if new_una <= st.snd_una:
            return
        for psn in range(st.snd_una, new_una):
            self._on_delivery(st, psn)
            st.sent_ts.pop(psn, None)
        self._advance_una(qp, st, new_una)
        if new_una < qp.next_psn:
            st.timer.restart(self.config.rto_ns)
        self._arm_timers(qp, st)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        self._advance(qp, self._send_state(qp), packet.ack_psn)
        self._rack_sweep(qp)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        if packet.sack_psn >= st.snd_una:
            st.sacked.add(packet.sack_psn)
            self._on_delivery(st, packet.sack_psn)
        self._advance(qp, st, packet.ack_psn)
        self._rack_sweep(qp)
