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

from repro.net.packet import Packet, PacketKind
from repro.rnic.base import QueuePair
from repro.rnic.window import NakRecvState, SendState, WindowTransport


class _GbnSendState(SendState):
    """The window with ``snd_nxt`` as a go-back pointer: a rewind *is* the
    retransmission selection, so ``rtx_queue``/``sacked`` stay empty."""

    __slots__ = ("nak_rewinds",)

    def __init__(self) -> None:
        super().__init__()
        self.nak_rewinds = 0


class GbnTransport(WindowTransport):
    """Go-Back-N sender/receiver state machines."""

    name = "gbn"
    SendState = _GbnSendState
    RecvState = NakRecvState

    # -------------------------------------------------------------- sender
    def _on_rto(self, qp: QueuePair) -> None:
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return  # everything acked; stale timer
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        st.snd_nxt = st.snd_una  # go back to the oldest unacked packet
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        epsn = packet.ack_psn
        if epsn >= st.snd_nxt:
            return
        if epsn > st.snd_una:
            # Everything before the NAK'ed PSN was received in order.
            self._advance_una(qp, st, epsn)
        st.snd_nxt = max(st.snd_una, epsn)
        st.nak_rewinds += 1
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        """In-sequence only — the one receiver that is not order-tolerant."""
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        if packet.psn == st.epsn:
            st.epsn += 1
            st.nak_outstanding = False
            flow = self.flow_of(packet)
            if flow is not None:
                flow.deliver(packet.payload_bytes, self.sim.now)
            self._send_ack(qp, PacketKind.ACK, packet.psn)
        elif packet.psn > st.epsn:
            # Out of order: GBN drops it and NAKs the expected PSN once.
            if not st.nak_outstanding:
                st.nak_outstanding = True
                self._send_ack(qp, PacketKind.NAK, st.epsn)
        else:
            # Duplicate of an already-received packet.
            flow = self.flow_of(packet)
            if flow is not None:
                flow.stats.dup_pkts_received += 1
            self._send_ack(qp, PacketKind.ACK, st.epsn - 1)
