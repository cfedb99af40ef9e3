"""The PSN-window transport skeleton every baseline is built on.

GBN, IRN, SDR, RACK-TLP, timeout-only, RIFL, MP-RDMA and the software
TCP stack all move packet sequence numbers through the same window;
IRN's ablations and SDR-RDMA's decomposition say what sets them apart is
a handful of policies — loss detection, retransmission selection,
receiver feedback, timers — layered on it.  :class:`WindowTransport`
holds the window once:

* per-QP sender state (``snd_una``/``snd_nxt``/``max_sent``, the SACK
  scoreboard, the retransmit queue, one RTO timer) and receiver state
  (``epsn`` + the out-of-order set), created lazily;
* the scheduler probe, the only one the window transports have: work
  check, pacing gate, drain the retransmit queue skipping PSNs repaired
  meanwhile, then the PSN at ``snd_nxt`` if :meth:`_window_open` allows
  it.  That PSN is new data, or a retransmission when a go-back rewind
  put ``snd_nxt`` at or below ``max_sent``.  Two hooks shape it:
  :meth:`_window_open` (default: the CC's window; MP-RDMA and TCP use
  their own packet windows) and :meth:`_on_transmit` (timestamps,
  timers, per-packet path entropy, software-stack pacing);
* data-packet construction with its sent/retransmit accounting;
* the cumulative-ACK advance (CC credit, message completion);
* the order-tolerant exactly-once receive step and ACK/SACK emission.

A transport subclasses it with its own state fields (``SendState`` /
``RecvState`` class attributes) and overrides only its policies; see the
table in DESIGN.md, "Transport skeleton".  Within a handler, the order
of calls that take a schedule sequence number — ``timer.restart``,
``_activate`` (which may pull a packet onto the wire) and
``nic.send_control`` — is part of a transport's behaviour: the shared
pieces are written so each handler keeps the order it always had.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (Message, QueuePair, RestartableTimer,
                             RnicTransport, _GATED, _NO_WORK)

#: Verdicts of :meth:`WindowTransport._accept`.
DUPLICATE, BEYOND_BOUND, IN_ORDER, OUT_OF_ORDER = range(4)


class SendState:
    """Per-QP sender variables of the PSN window."""

    __slots__ = ("snd_una", "snd_nxt", "max_sent", "sacked", "rtx_queue",
                 "rtx_queued", "timer")

    def __init__(self) -> None:
        self.snd_una = 0                 # oldest unacknowledged PSN
        self.snd_nxt = 0                 # next new PSN (the go-back pointer)
        self.max_sent = -1               # highest PSN ever transmitted
        self.sacked: set[int] = set()    # selectively acked, >= snd_una
        self.rtx_queue: deque[int] = deque()
        self.rtx_queued: set[int] = set()   # mirror of rtx_queue, for dedup
        self.timer: Optional[RestartableTimer] = None   # fires _on_rto


class RecvState:
    """Per-QP receiver variables: cumulative ePSN + out-of-order set."""

    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class NakRecvState(RecvState):
    """Go-back-N receivers NAK once per sequence-error episode."""

    __slots__ = ("nak_outstanding",)

    def __init__(self) -> None:
        super().__init__()
        self.nak_outstanding = False


class WindowTransport(RnicTransport):
    """Selective-repeat sender + order-tolerant cumulative receiver.

    Used as is, this is a static-window transport whose only recovery
    trigger is the timer behind :meth:`_on_rto`.
    """

    SendState = SendState
    RecvState = RecvState
    #: Count a duplicate that was a retransmission as ``spurious_retx``.
    count_spurious = False

    # --------------------------------------------------------------- state
    def _new_send_state(self, qp: QueuePair) -> SendState:
        st = self.SendState()
        st.timer = RestartableTimer(self.sim, lambda: self._on_rto(qp))
        return st

    def _new_recv_state(self, qp: QueuePair) -> RecvState:
        return self.RecvState()

    def inflight_bytes(self) -> int:
        mtu = self.config.mtu_payload
        return sum(max(0, st.snd_nxt - st.snd_una) * mtu
                   for st in self._snd.values())

    # -------------------------------------------------------------- sender
    def _qp_poll(self, qp: QueuePair, now: int):
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        rtx = st.rtx_queue
        psn = st.snd_nxt
        if not rtx and psn >= qp.next_psn:
            return _NO_WORK
        if qp.next_send_ns > now:
            return _GATED
        mtu = self.config.mtu_payload
        # Retransmissions take priority over new data.
        while rtx:
            queued = rtx.popleft()
            st.rtx_queued.discard(queued)
            if queued < st.snd_una or queued in st.sacked:
                continue  # repaired while queued
            msg = qp.psn_to_message(queued)
            packet = self._build(qp, msg, queued,
                                 msg.payload_of(queued - msg.base_psn, mtu),
                                 is_retx=True)
            self._on_transmit(qp, st, queued, packet)
            return packet
        if psn >= qp.next_psn:
            return None
        msg = qp.psn_to_message(psn)
        # Message.payload_of, inlined: every probe of a QP with new data
        # computes it, including those the window then turns away.
        last = msg.num_pkts - 1
        if psn - msg.base_psn < last:
            payload = mtu
        else:
            payload = msg.size_bytes - last * mtu
        if not self._window_open(qp, st, psn, payload):
            return None
        # After a go-back rewind, "new" data at or below max_sent is a
        # retransmission.
        is_retx = psn <= st.max_sent
        packet = self._build(qp, msg, psn, payload, is_retx)
        self._on_transmit(qp, st, psn, packet)
        if not is_retx:
            st.max_sent = psn
        st.snd_nxt = psn + 1
        return packet

    def _window_open(self, qp: QueuePair, st: SendState, psn: int,
                     payload: int) -> bool:
        """May ``psn`` (``payload`` bytes) leave at the head of the window?

        The CC's window, read straight off ``window_bytes`` when it is a
        static cap.  Transports with a native packet window override it.
        """
        cc = qp.cc
        inflight = (psn - st.snd_una) * self.config.mtu_payload
        wb = cc.window_bytes
        if wb is None:
            return cc.available_window(inflight) >= payload
        return wb - inflight >= payload

    def _build(self, qp: QueuePair, msg: Message, psn: int, payload: int,
               is_retx: bool) -> Packet:
        """Construct one RoCE data packet and account for it."""
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, msg.flow.flow_id, qp.peer_qpn,
            qp.qpn, psn, msg.msn, payload, self.config.mtu_payload,
            msg.num_pkts, msg.size_bytes, False, -1, 0, qp.entropy, is_retx,
            self.sim)
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
        return packet

    def _on_transmit(self, qp: QueuePair, st: SendState, psn: int,
                     packet: Packet) -> None:
        """A packet is about to leave: stamp it, arm timers.

        Runs before ``snd_nxt`` moves past a new packet.
        """
        if not st.timer.armed:
            st.timer.restart(self._rto(st))

    def _rto(self, st: SendState) -> int:
        return self.config.rto_ns

    def _on_rto(self, qp: QueuePair) -> None:
        raise NotImplementedError

    def _advance_una(self, qp: QueuePair, st: SendState, new_una: int) -> None:
        """Cumulative-ACK advance to ``new_una`` (> ``snd_una``)."""
        cc = qp.cc
        if cc.wants_ack:
            cc.on_ack((new_una - st.snd_una) * self.config.mtu_payload,
                      self.sim.now)
        st.snd_una = new_una
        if st.sacked:
            st.sacked = {p for p in st.sacked if p >= new_una}
        qp.complete_through(new_una, self.sim.now)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        """Cumulative ACK with a single RTO: cancel when idle, else re-arm."""
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        new_una = packet.ack_psn + 1
        if new_una <= st.snd_una:
            return
        self._advance_una(qp, st, new_una)
        if new_una >= qp.next_psn:
            st.timer.cancel()
        else:
            st.timer.restart(self._rto(st))
        self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _accept(self, st: RecvState, packet: Packet,
                bound: Optional[int] = None) -> int:
        """The order-tolerant exactly-once receive step.

        Delivers a new PSN to its flow (any order — Write-Only
        placement), advances ``epsn`` over the out-of-order set, and
        returns the verdict.  A PSN ``bound`` or more packets ahead of
        ``epsn`` is beyond the receiver's reorder state and is dropped.
        """
        flow = self.rx_flows.get(packet.flow_id)
        psn = packet.psn
        if psn < st.epsn or psn in st.ooo:
            if flow is not None:
                flow.stats.dup_pkts_received += 1
                if self.count_spurious and packet.is_retransmit:
                    self.stats.spurious_retx += 1
            return DUPLICATE
        if bound is not None and psn - st.epsn >= bound:
            self.stats.ooo_drops += 1
            return BEYOND_BOUND
        if flow is not None:
            flow.deliver(packet.payload_bytes, self.sim.now)
        if psn != st.epsn:
            st.ooo.add(psn)
            return OUT_OF_ORDER
        st.epsn += 1
        while st.epsn in st.ooo:
            st.ooo.discard(st.epsn)
            st.epsn += 1
        return IN_ORDER

    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        """Cumulative-ACK receiver: one ACK per arrival."""
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        self._accept(st, packet)
        self._send_ack(qp, PacketKind.ACK, st.epsn - 1)

    def _on_data_sack(self, qp: QueuePair, packet: Packet) -> None:
        """IRN-style receiver: a SACK names each out-of-order arrival."""
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        if self._accept(st, packet) == OUT_OF_ORDER:
            self._send_ack(qp, PacketKind.SACK, st.epsn - 1, packet.psn)
        else:
            self._send_ack(qp, PacketKind.ACK, st.epsn - 1)

    def _send_ack(self, qp: QueuePair, kind: PacketKind, ack_psn: int,
                  sack_psn: int = -1, sack_bitmap: int = 0,
                  ecn_ce: bool = False) -> None:
        # Positional make_ack: (flow_id, qpn, src_qpn, kind, ack_psn, emsn,
        # sack_psn, sack_bitmap, dcp, entropy, sim).
        ack = make_ack(self.host_id, qp.peer_host_id, -1, qp.peer_qpn,
                       qp.qpn, kind, ack_psn, -1, sack_psn, sack_bitmap,
                       False, qp.entropy, self.sim)
        if ecn_ce:
            ack.ecn_ce = True
        self.nic.send_control(ack)
