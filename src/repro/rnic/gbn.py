"""RNIC-GBN: the traditional Go-Back-N RoCE transport (§2.1).

This models Mellanox CX5-class RNICs: the receiver only accepts
in-sequence packets; any out-of-order arrival triggers a NAK carrying
the expected PSN, and the sender rewinds its send pointer to that PSN,
retransmitting everything from there.  A retransmission timeout covers
lost NAKs/ACKs and tail losses.

Deployed over a PFC fabric this is the paper's "PFC" baseline; over a
lossy fabric it is the "CX5" baseline whose goodput collapses with the
loss rate (Fig 10).
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (Flow, Message, QueuePair, RestartableTimer,
                             RnicTransport, TransportConfig, _GATED, _NO_WORK)
from repro.sim.engine import Simulator


class _GbnSendState:
    """Per-QP Go-Back-N sender variables."""

    __slots__ = ("snd_una", "snd_nxt", "max_sent", "timer", "nak_rewinds")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.timer: Optional[RestartableTimer] = None
        self.nak_rewinds = 0


class _GbnRecvState:
    """Per-QP receiver variables."""

    __slots__ = ("epsn", "nak_outstanding")

    def __init__(self) -> None:
        self.epsn = 0
        self.nak_outstanding = False


class GbnTransport(RnicTransport):
    """Go-Back-N sender/receiver state machines."""

    name = "gbn"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._snd: dict[int, _GbnSendState] = {}
        self._rcv: dict[int, _GbnRecvState] = {}

    def _send_state(self, qp: QueuePair) -> _GbnSendState:
        st = qp.tx_state
        if st is None:
            st = _GbnSendState()
            st.timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _GbnRecvState:
        st = qp.rx_state
        if st is None:
            st = _GbnRecvState()
            self._rcv[qp.qpn] = qp.rx_state = st
        return st

    # -------------------------------------------------------------- sender
    def _qp_poll(self, qp: QueuePair, now: int):
        """One-call scheduler probe (see base class) — the GBN fast path.

        Mirrors ``_qp_has_work`` + ``_qp_next_packet`` exactly, with
        ``payload_of`` and the static-window check inlined and the
        packet built with positional arguments.
        """
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        snd_nxt = st.snd_nxt
        if snd_nxt >= qp.next_psn:
            return _NO_WORK
        if qp.next_send_ns > now:
            return _GATED
        mtu = self.config.mtu_payload
        msg = qp.psn_to_message(snd_nxt)
        off = snd_nxt - msg.base_psn
        if off < msg.num_pkts - 1:
            payload = mtu
        else:
            payload = msg.size_bytes - (msg.num_pkts - 1) * mtu
        cc = qp.cc
        wb = cc.window_bytes
        if wb is None:
            if cc.available_window((snd_nxt - st.snd_una) * mtu) < payload:
                return None
        elif wb - (snd_nxt - st.snd_una) * mtu < payload:
            return None
        is_retx = snd_nxt <= st.max_sent
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, msg.flow.flow_id, qp.peer_qpn,
            qp.qpn, snd_nxt, msg.msn, payload, mtu, msg.num_pkts,
            msg.size_bytes, off, False, -1, 0, qp.entropy, is_retx, 0,
            self.pool)
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
            st.max_sent = snd_nxt
        st.snd_nxt = snd_nxt + 1
        timer = st.timer
        token = timer._token
        if token is None or token.cancelled:
            timer.restart(self.config.rto_ns)
        return packet

    def _qp_has_work(self, qp: QueuePair) -> bool:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        return st.snd_nxt < qp.next_psn

    def _qp_next_packet(self, qp: QueuePair) -> Optional[Packet]:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_nxt >= qp.next_psn:
            return None
        msg = qp.psn_to_message(st.snd_nxt)
        payload = msg.payload_of(st.snd_nxt - msg.base_psn, self.config.mtu_payload)
        outstanding = (st.snd_nxt - st.snd_una) * self.config.mtu_payload
        if qp.cc.available_window(outstanding) < payload:
            return None
        is_retx = st.snd_nxt <= st.max_sent
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, flow_id=msg.flow.flow_id,
            qpn=qp.peer_qpn, src_qpn=qp.qpn, psn=st.snd_nxt, msn=msg.msn,
            payload=payload, mtu_payload=self.config.mtu_payload,
            msg_len_pkts=msg.num_pkts, msg_len_bytes=msg.size_bytes,
            msg_offset_pkts=st.snd_nxt - msg.base_psn, dcp=False,
            entropy=qp.entropy, is_retransmit=is_retx, pool=self.pool,
        )
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
            st.max_sent = st.snd_nxt
        st.snd_nxt += 1
        if not st.timer.armed:
            st.timer.restart(self.config.rto_ns)
        return packet

    def _on_rto(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return  # everything acked; stale timer
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        st.snd_nxt = st.snd_una  # go back to the oldest unacked packet
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        new_una = packet.ack_psn + 1
        if new_una > st.snd_una:
            acked_bytes = (new_una - st.snd_una) * self.config.mtu_payload
            st.snd_una = new_una
            cc = qp.cc
            if cc.wants_ack:
                cc.on_ack(acked_bytes, self.sim.now)
            self._complete_messages(qp, st)
            if st.snd_una >= qp.next_psn:
                st.timer.cancel()
            else:
                st.timer.restart(self.config.rto_ns)
            self._activate(qp)

    def _complete_messages(self, qp: QueuePair, st: _GbnSendState) -> None:
        for msg in qp.send_queue:
            if msg.acked:
                continue
            if st.snd_una >= msg.base_psn + msg.num_pkts:
                msg.acked = True
                if msg.flow.tx_complete_ns is None and self._flow_fully_acked(qp, msg.flow):
                    msg.flow.tx_complete_ns = self.sim.now

    def _flow_fully_acked(self, qp: QueuePair, flow: Flow) -> bool:
        return all(m.acked for m in qp.messages.values() if m.flow is flow)

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        epsn = packet.ack_psn
        if epsn >= st.snd_nxt:
            return
        if epsn > st.snd_una:
            # Everything before the NAK'ed PSN was received in order.
            cc = qp.cc
            if cc.wants_ack:
                cc.on_ack((epsn - st.snd_una) * self.config.mtu_payload,
                          self.sim.now)
            st.snd_una = epsn
            self._complete_messages(qp, st)
        st.snd_nxt = max(st.snd_una, epsn)
        st.nak_rewinds += 1
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        if packet.psn == st.epsn:
            st.epsn += 1
            st.nak_outstanding = False
            flow = self.flow_of(packet)
            if flow is not None:
                flow.deliver(packet.payload_bytes, self.sim.now)
            self._send_ack(qp, PacketKind.ACK, ack_psn=packet.psn)
        elif packet.psn > st.epsn:
            # Out of order: GBN drops it and NAKs the expected PSN once.
            if not st.nak_outstanding:
                st.nak_outstanding = True
                self._send_ack(qp, PacketKind.NAK, ack_psn=st.epsn)
        else:
            # Duplicate of an already-received packet.
            flow = self.flow_of(packet)
            if flow is not None:
                flow.stats.dup_pkts_received += 1
            self._send_ack(qp, PacketKind.ACK, ack_psn=st.epsn - 1)

    def _send_ack(self, qp: QueuePair, kind: PacketKind, ack_psn: int) -> None:
        # Positional make_ack: (flow_id, qpn, src_qpn, kind, ack_psn,
        # emsn, sack_psn, dcp, entropy, priority, pool).
        ack = make_ack(self.host_id, qp.peer_host_id, -1, qp.peer_qpn,
                       qp.qpn, kind, ack_psn, dcp=False, entropy=qp.entropy,
                       pool=self.pool)
        self.nic.send_control(ack)
