"""DCP-RNIC: header-only-based retransmission and bitmap-free tracking.

The sender/receiver state machines of §4.3-§4.5:

Sender
    * data packets carry the DCP_DATA tag, the extended header (RETH in
      every packet, MSN, sRetryNo) and are subject to trimming;
    * a returned HO packet is a *precise* loss notification: the RNIC
      DMA-writes an (MSN, PSN) entry into the QP's host-memory
      :class:`~repro.core.retransq.RetransQ`; the Tx path drains it in
      batches, gated by the CC module's available window (``awin``);
    * a **coarse-grained timeout** per QP covers control-plane violations
      (HO/ACK losses, link failures): on expiry the whole unaMSN message
      is resent with an incremented ``sRetryNo``, bypassing the window.

Receiver
    * order-tolerant reception (§4.4): any packet is written straight to
      application memory — no reorder buffer; the simulator's analogue is
      that payload accounting never needs contiguity;
    * bitmap-free tracking (§4.5): a per-message counter via
      :class:`~repro.core.tracking.CounterTracker`; eMSN advances over
      in-order completed messages and each advance emits an ACK carrying
      the new eMSN;
    * HO packets are turned around (src/dst swap) toward the sender
      through the lossless control plane.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.retransq import RetransQ
from repro.core.tracking import CounterTracker
from repro.net.packet import (Packet, PacketKind, make_ack,
                              make_data_packet)
from repro.rnic.base import (Flow, Message, QueuePair, RestartableTimer,
                             RnicTransport, _GATED, _NO_WORK)
from repro.sim import trace


class _DcpSendState:
    """Per-QP DCP sender variables."""

    __slots__ = ("snd_nxt", "retransq", "timeout_rtx", "una_msn", "sretry",
                 "msg_out_bytes", "timer", "acked_msn", "acked_bytes",
                 "backoff")

    def __init__(self) -> None:
        self.snd_nxt = 0
        self.retransq: Optional[RetransQ] = None
        self.timeout_rtx: deque[tuple[int, int]] = deque()  # (msn, psn)
        self.una_msn = 0
        self.acked_msn = 0           # messages below this are acked (== eMSN)
        self.acked_bytes = 0
        self.sretry: dict[int, int] = {}
        self.msg_out_bytes: dict[int, int] = {}
        self.timer: Optional[RestartableTimer] = None
        self.backoff = 0             # consecutive coarse timeouts (capped)


class _DcpRecvState:
    """Per-QP DCP receiver variables."""

    __slots__ = ("tracker",)

    def __init__(self, tracked_messages: int) -> None:
        self.tracker = CounterTracker(tracked_messages=tracked_messages)


class DcpTransport(RnicTransport):
    """The DCP-RNIC transport (requires DCP-Switch trimming in the fabric)."""

    name = "dcp"
    dcp_wire = True

    def inflight_bytes(self) -> int:
        # Acking is message-granular (no snd_una), so the QP-level
        # outstanding-byte accounting is authoritative.
        return sum(qp.outstanding_bytes for qp in self.qps.values())

    # ---------------------------------------------------------------- state
    def _new_send_state(self, qp: QueuePair) -> _DcpSendState:
        st = _DcpSendState()
        st.retransq = RetransQ(
            self.sim, pcie_rtt_ns=self.config.pcie_rtt_ns,
            batch=self.config.retrans_batch,
            naive=self.config.dcp_naive_retrans,
            on_ready=lambda: self._activate(qp))
        st.timer = RestartableTimer(self.sim,
                                    lambda: self._on_coarse_timeout(qp))
        return st

    def _new_recv_state(self, qp: QueuePair) -> _DcpRecvState:
        return _DcpRecvState(tracked_messages=8)

    def _coarse_ns(self, qp: QueuePair, st: _DcpSendState) -> int:
        """Coarse-timeout duration, scaled to the unacked backlog.

        The fallback timer must never fire while a multi-MB message train
        is still draining at line rate, so it covers several transmission
        times of everything not yet acknowledged plus the configured base.
        """
        unacked = max(0, qp.posted_bytes - st.acked_bytes)
        rate = self.nic.rate if self.nic is not None else 100.0
        base = self.config.coarse_timeout_ns + int(4 * unacked * 8 / rate)
        # Exponential backoff: each consecutive timeout doubles the wait,
        # letting congested queues drain so the next retry round can land
        # completely (otherwise constant-rate rounds can reset the
        # receiver's counter forever under persistent loss).
        return base << min(st.backoff, 8)

    def post_message(self, qp: QueuePair, flow: Flow, size_bytes: int) -> Message:
        msg = super().post_message(qp, flow, size_bytes)
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if not st.timer.armed:
            st.timer.restart(self._coarse_ns(qp, st))
        return msg

    # ---------------------------------------------------------------- sender
    def _qp_poll(self, qp: QueuePair, now: int):
        """One-call scheduler probe (see base class) — the DCP fast path.

        New data is built only here, in the probe's own frame.  A QP
        holding recovery state (coarse-timeout rewinds or RetransQ
        entries) first goes through :meth:`_qp_recover`; new data may
        follow only once that state is gone — "after processing all
        fetched retransmission entries" (§4.3), so pending loss repairs
        never lose the window headroom their HOs freed.
        """
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        rq = st.retransq
        if st.timeout_rtx or rq.pending or rq.ready:
            if qp.next_send_ns > now:
                return _GATED
            packet = self._qp_recover(qp, st)
            if packet is not None or rq.pending or rq.ready:
                return packet
            # Every entry was stale (its message already acked).  With
            # no new data either, the QP stays in the ring this round.
            if st.snd_nxt >= qp.next_psn:
                return None
        psn = st.snd_nxt
        if psn >= qp.next_psn:
            return _NO_WORK
        if qp.next_send_ns > now:
            return _GATED
        cc = qp.cc
        wb = cc.window_bytes
        out = qp.outstanding_bytes
        if wb is None:
            awin = cc.available_window(out)
        else:
            awin = wb - out
            if awin < 0:
                awin = 0
        mtu = self.config.mtu_payload
        msg = qp.psn_to_message(psn)
        off = psn - msg.base_psn
        if off < msg.num_pkts - 1:
            payload = mtu
        else:
            payload = msg.size_bytes - (msg.num_pkts - 1) * mtu
        if awin < payload and out > 0:
            # Progress guarantee: DCP's ACKs are message-granular, so a
            # window smaller than a message must never wedge the QP —
            # with nothing in flight, one packet is always admissible.
            return None
        msn = msg.msn
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, msg.flow.flow_id, qp.peer_qpn,
            qp.qpn, psn, msn, payload, mtu, msg.num_pkts, msg.size_bytes,
            off, True, msg.ssn, st.sretry.get(msn, 0), qp.entropy, False, 0,
            self.sim)
        qp.outstanding_bytes = out + payload
        out_bytes = st.msg_out_bytes
        out_bytes[msn] = out_bytes.get(msn, 0) + payload
        msg.flow.stats.data_pkts_sent += 1
        timer = st.timer
        token = timer._token
        if token is None or token.cancelled:
            timer.restart(self._coarse_ns(qp, st))
        st.snd_nxt = psn + 1
        return packet

    def _qp_has_work(self, qp: QueuePair) -> bool:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        return (bool(st.timeout_rtx) or len(st.retransq) > 0
                or st.snd_nxt < qp.next_psn)

    def _qp_recover(self, qp: QueuePair,
                    st: _DcpSendState) -> Optional[Packet]:
        """Next retransmission, or None; stale entries are dropped."""
        # 1. Coarse-timeout retransmissions: recovery actions bypass awin.
        while st.timeout_rtx:
            msn, psn = st.timeout_rtx.popleft()
            if msn < st.acked_msn:
                continue
            return self._build_retx(qp, st, psn)

        # 2. HO-based retransmissions from the RetransQ, gated by awin.
        cc = qp.cc
        wb = cc.window_bytes
        if wb is None:
            awin = cc.available_window(qp.outstanding_bytes)
        else:
            awin = wb - qp.outstanding_bytes
            if awin < 0:
                awin = 0
        if st.retransq.host_len > 0:
            st.retransq.request_fetch(
                max(1, awin // (self.config.mtu_payload or 1)))
        while st.retransq.has_ready():
            if awin < self.config.mtu_payload:
                break
            entry = st.retransq.pop_ready()
            if entry.msn < st.acked_msn:
                self.stats.stale_ho += 1
                continue
            return self._build_retx(qp, st, entry.psn)
        return None

    def _build_retx(self, qp: QueuePair, st: _DcpSendState,
                    psn: int) -> Packet:
        msg = qp.psn_to_message(psn)
        mtu = self.config.mtu_payload
        off = psn - msg.base_psn
        if off < msg.num_pkts - 1:
            payload = mtu
        else:
            payload = msg.size_bytes - (msg.num_pkts - 1) * mtu
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, msg.flow.flow_id, qp.peer_qpn,
            qp.qpn, psn, msg.msn, payload, mtu, msg.num_pkts,
            msg.size_bytes, off, True, msg.ssn, st.sretry.get(msg.msn, 0),
            qp.entropy, True, 0, self.sim)
        qp.outstanding_bytes += payload
        st.msg_out_bytes[msg.msn] = st.msg_out_bytes.get(msg.msn, 0) + payload
        self.count_retransmit(msg.flow)
        if not st.timer.armed:
            st.timer.restart(self._coarse_ns(qp, st))
        return packet

    def _on_ho(self, qp: QueuePair, packet: Packet) -> None:
        if not packet.ho_returned:
            # We are the receiver: swap src/dst and bounce it to the sender
            # via the control-priority path (§4.1 step 2).
            packet.turn_around()
            self.stats.ho_turned += 1
            trace.emit(self.sim.now, "ho", self._actor, dir="turn",
                       flow_id=packet.flow_id, psn=packet.psn)
            self.nic.send_control(packet)
            return
        # We are the sender: a precise loss notification arrived.
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        self.stats.ho_received += 1
        trace.emit(self.sim.now, "ho", self._actor, dir="recv",
                   flow_id=packet.flow_id, psn=packet.psn)
        msg = qp.psn_to_message(packet.psn)
        msg.flow.stats.trims_seen += 1
        if msg.msn < st.acked_msn:
            self.stats.stale_ho += 1
            return
        payload = msg.payload_of(packet.psn - msg.base_psn, self.config.mtu_payload)
        qp.outstanding_bytes = max(0, qp.outstanding_bytes - payload)
        out = st.msg_out_bytes.get(msg.msn, 0)
        st.msg_out_bytes[msg.msn] = max(0, out - payload)
        st.retransq.write(msg.msn, packet.psn)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        emsn = packet.emsn
        if emsn <= st.acked_msn:
            return
        acked_bytes = 0
        queue = qp.send_queue
        while queue and queue[0].msn < emsn:
            msg = qp.complete_head(self.sim.now)
            acked_bytes += msg.size_bytes
            qp.outstanding_bytes = max(
                0, qp.outstanding_bytes - st.msg_out_bytes.pop(msg.msn, 0))
            st.sretry.pop(msg.msn, None)
        st.acked_bytes += acked_bytes
        st.acked_msn = emsn
        st.backoff = 0
        cc = qp.cc
        if cc.wants_ack:
            cc.on_ack(acked_bytes, self.sim.now)
        # §4.5: eMSN > unaMSN -> reset the coarse timer.
        if emsn > st.una_msn:
            st.una_msn = emsn
        if st.una_msn >= qp.next_msn and not self._qp_has_work(qp):
            st.timer.cancel()
        else:
            st.timer.restart(self._coarse_ns(qp, st))
        self._activate(qp)

    def _on_coarse_timeout(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.una_msn >= qp.next_msn:
            return
        msg = qp.messages.get(st.una_msn)
        if msg is None or msg.acked:
            st.una_msn += 1
            st.timer.restart(self._coarse_ns(qp, st))
            return
        # Fallback: resend every packet of the unaMSN message with a new
        # retry number; the receiver recounts from zero (§4.5).
        self.count_coarse_timeout(msg.flow)
        qp.cc.on_timeout(self.sim.now)
        trace.emit(self.sim.now, "timer", f"dcp{self.host_id}",
                   flow_id=msg.flow.flow_id, msn=msg.msn,
                   sretry=st.sretry.get(msg.msn, 0) + 1)
        st.backoff += 1
        st.sretry[msg.msn] = st.sretry.get(msg.msn, 0) + 1
        st.timeout_rtx.extend(
            (msg.msn, msg.base_psn + i) for i in range(msg.num_pkts))
        st.timer.restart(self._coarse_ns(qp, st))
        self._activate(qp)

    # -------------------------------------------------------------- receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        if packet.ecn_ce:
            self.maybe_send_cnp(qp, packet)
        tracker = st.tracker
        flow = self.rx_flows.get(packet.flow_id)
        before_emsn = tracker.emsn
        if packet.msn < tracker.emsn or (
                packet.msn in tracker.tracks and tracker.tracks[packet.msn].mcf):
            # Duplicate for an already-complete message (timeout round or
            # stale retransmission): refresh the sender's view of eMSN.
            if flow is not None:
                flow.stats.dup_pkts_received += 1
            self._send_emsn_ack(qp, tracker.emsn)
            return
        completed = tracker.record(packet.msn, packet.msg_len_pkts,
                                   packet.sretry_no)
        if completed:
            if flow is not None:
                flow.deliver(packet.msg_len_bytes, self.sim.now)
            new_emsn, _cqes = tracker.advance_emsn()
            if new_emsn > before_emsn:
                self._send_emsn_ack(qp, new_emsn)

    def _send_emsn_ack(self, qp: QueuePair, emsn: int) -> None:
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=PacketKind.ACK,
                       emsn=emsn, dcp=True, entropy=qp.entropy, sim=self.sim)
        self.nic.send_control(ack)

    # ------------------------------------------------- unsupported handlers
    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:  # pragma: no cover
        raise ValueError("DCP does not use SACK")

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:  # pragma: no cover
        raise ValueError("DCP does not use NAK")
