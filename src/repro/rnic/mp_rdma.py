"""MP-RDMA: packet-level multipath RDMA (Lu et al., NSDI 2018).

The paper's lossless multipath baseline (Table 2: satisfies R2 but not
R1/R3).  Modelled behaviours:

* **multipath**: each data packet carries one of ``num_vp`` virtual-path
  entropy values, so ECMP hashing in the fabric spreads a single QP's
  packets across paths (packet-level LB without switch support);
* **adaptive congestion window**: ECN-echoing ACKs drive an AIMD window
  (+1/cwnd per unmarked ACK, -1/2 packet per marked ACK), which is the
  native CC the paper credits for MP-RDMA's incast robustness (§6.3);
* **bounded out-of-order tolerance**: the receiver tracks OOO arrivals
  in an ``ooo_window``-packet bitmap; packets beyond it are dropped and
  NAKed — the behaviour behind "MP-RDMA fails to effectively control
  the out-of-order degree below its expected threshold" (§6.2);
* **Go-Back-N recovery**: like RNIC-GBN, so it "still requires PFC to
  create a lossless environment" — run it on a PFC fabric.
"""

from __future__ import annotations

from repro.net.packet import Packet, PacketKind
from repro.rnic.base import QueuePair, TransportConfig
from repro.rnic.window import (BEYOND_BOUND, IN_ORDER, NakRecvState,
                               SendState, WindowTransport)
from repro.sim.engine import Simulator

#: Virtual paths per QP (entropy values cycled per packet).
DEFAULT_NUM_VP = 8
#: Receiver OOO bitmap capacity, packets beyond epsn it can absorb.
DEFAULT_OOO_WINDOW = 64


class _MpSendState(SendState):
    """Go-back pointer plus the native AIMD window and path cursor."""

    __slots__ = ("cwnd_pkts", "vp_cursor", "awaiting_rewind")

    def __init__(self) -> None:
        super().__init__()
        self.cwnd_pkts = 0.0
        self.vp_cursor = 0
        self.awaiting_rewind = False


class MpRdmaTransport(WindowTransport):
    """Multipath sender with bounded-OOO receiver and GBN recovery."""

    name = "mp_rdma"
    SendState = _MpSendState
    RecvState = NakRecvState

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig,
                 num_vp: int = DEFAULT_NUM_VP,
                 ooo_window: int = DEFAULT_OOO_WINDOW) -> None:
        super().__init__(sim, host_id, config)
        self.num_vp = num_vp
        self.ooo_window = ooo_window

    @property
    def ooo_drops(self) -> int:
        return self.stats.ooo_drops

    def _new_send_state(self, qp: QueuePair) -> _MpSendState:
        st = super()._new_send_state(qp)
        st.cwnd_pkts = max(4.0, self.config.window_bytes / self.config.mtu_payload)
        return st

    # -------------------------------------------------------------- sender
    def _window_open(self, qp: QueuePair, st: _MpSendState, psn: int,
                     payload: int) -> bool:
        """The native AIMD packet window, not the CC's."""
        return psn - st.snd_una < max(1, int(st.cwnd_pkts))

    def _on_transmit(self, qp: QueuePair, st: _MpSendState, psn: int,
                     packet: Packet) -> None:
        # Per-packet virtual path: cycle entropy values so ECMP spreads the
        # QP across num_vp paths.
        packet.entropy = (qp.entropy * self.num_vp) + st.vp_cursor
        st.vp_cursor = (st.vp_cursor + 1) % self.num_vp
        super()._on_transmit(qp, st, psn, packet)

    def _on_rto(self, qp: QueuePair) -> None:
        st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        st.cwnd_pkts = max(2.0, st.cwnd_pkts / 2)
        st.snd_nxt = st.snd_una
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        # MP-RDMA's adaptive window: AIMD driven by the ECN echo.
        if packet.ecn_ce:
            st.cwnd_pkts = max(2.0, st.cwnd_pkts - 0.5)
        else:
            st.cwnd_pkts += 1.0 / max(1.0, st.cwnd_pkts)
        new_una = packet.ack_psn + 1
        if new_una > st.snd_una:
            self._advance_una(qp, st, new_una)
            st.awaiting_rewind = False
            if new_una >= qp.next_psn:
                st.timer.cancel()
            else:
                st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        epsn = packet.ack_psn
        if epsn >= st.snd_nxt or st.awaiting_rewind:
            return
        if epsn > st.snd_una:
            st.snd_una = epsn
        st.snd_nxt = max(st.snd_una, epsn)
        st.awaiting_rewind = True
        st.cwnd_pkts = max(2.0, st.cwnd_pkts / 2)
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        verdict = self._accept(st, packet, self.ooo_window)
        if verdict == BEYOND_BOUND:
            # Beyond the OOO bitmap: the RNIC cannot track it; drop + NAK.
            if not st.nak_outstanding:
                st.nak_outstanding = True
                self._send_ack(qp, PacketKind.NAK, st.epsn)
            return
        if verdict == IN_ORDER:
            st.nak_outstanding = False
        # The ECN echo drives the sender's adaptive window.
        self._send_ack(qp, PacketKind.ACK, st.epsn - 1, ecn_ce=packet.ecn_ce)
