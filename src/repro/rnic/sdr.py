"""SDR: software-defined selective repeat for high-BDP paths.

Models the reliability core of SDR-RDMA (software selective-repeat
reliability over unreliable datagrams, aimed at lossy/planetary-scale
fabrics).  Three mechanisms distinguish it from the NIC baselines:

* **Ack vector** — the receiver acknowledges with a cumulative ePSN
  *plus* a 64-bit bitmap over ``[ePSN, ePSN+64)`` describing every
  out-of-order packet it buffered, instead of IRN's one-PSN-per-SACK.
  One ack therefore repairs the sender's whole view of the window.
* **Bounded reorder state** — the receiver buffers out-of-order
  arrivals only within ``sdr_reorder_window_pkts`` of ePSN (software
  receivers track a finite bitmap, not arbitrary state); packets beyond
  the bound are discarded (counted in ``ooo_drops``) and repaired by
  the sender's timers like any loss.
* **Per-hole retransmission timers** — every transmission arms its own
  deadline (a lazy-deletion heap over one restartable timer).  An
  expired hole retransmits *that packet only*: no window-wide blast, no
  ``cc.on_timeout`` penalty, which is what keeps goodput up on
  high-BDP paths where a full RTO costs a pipe's worth of data.  An
  ack-vector gap (``SACK_GAP_PKTS`` packets SACKed above a hole)
  retransmits the hole immediately, once per episode — the common-case
  fast path; repeated losses of the same PSN always fall back to the
  hole timer.

A coarse fallback timer (``coarse_timeout_ns``, same §4.5 semantics and
``coarse_timeouts`` accounting as DCP) restarts on cumulative progress
and covers dead paths, where holes *and* their repairs die: it fires
``cc.on_timeout`` and re-queues everything unacknowledged.  Under plain
loss it must never fire — the per-hole timers repair first — which
``tests/transport/test_sdr.py`` pins.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.net.packet import Packet, PacketKind
from repro.rnic.base import QueuePair, RestartableTimer, TransportConfig
from repro.rnic.window import SendState, WindowTransport
from repro.sim.engine import Simulator

#: Width of the on-wire ack vector (one 64-bit word, as a real header
#: field would be).  The receiver may buffer more than 64 packets ahead;
#: bits beyond the vector are simply re-reported as ePSN advances.
SACK_VECTOR_BITS = 64

#: Packets SACKed above a hole before the vector presumes it lost.
SACK_GAP_PKTS = 3


class _SdrSendState(SendState):
    """The skeleton's sender state plus per-hole deadlines.

    ``timer`` is the coarse fallback; ``hole_timer`` serves the heap.
    """

    __slots__ = ("fast_retx", "sent_at", "hole_heap", "hole_timer")

    def __init__(self) -> None:
        super().__init__()
        self.fast_retx: set[int] = set()
        self.sent_at: dict[int, int] = {}       # psn -> last tx time
        self.hole_heap: list[tuple[int, int]] = []  # (deadline, psn)
        self.hole_timer: Optional[RestartableTimer] = None


class SdrTransport(WindowTransport):
    """Selective repeat with ack vectors and per-hole timers."""

    name = "sdr"
    SendState = _SdrSendState
    count_spurious = True

    def __init__(self, sim: Simulator, host_id: int,
                 config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._hole_to = config.rto_low_ns
        self._reorder_bound = config.sdr_reorder_window_pkts or max(
            64, (2 * config.window_bytes) // max(1, config.mtu_payload))

    def _new_send_state(self, qp: QueuePair) -> _SdrSendState:
        st = super()._new_send_state(qp)
        st.hole_timer = RestartableTimer(
            self.sim, lambda: self._on_hole_timer(qp))
        return st

    # -------------------------------------------------------------- sender
    def _on_transmit(self, qp: QueuePair, st: _SdrSendState, psn: int,
                     packet: Packet) -> None:
        now = self.sim.now
        # Every transmission gets its own hole deadline.  Deadlines are
        # pushed in nondecreasing order (always now + hole_to), so an
        # armed timer is never later than the true head.
        st.sent_at[psn] = now
        heappush(st.hole_heap, (now + self._hole_to, psn))
        if not st.hole_timer.armed:
            st.hole_timer.restart(self._hole_to)
        if not st.timer.armed:
            st.timer.restart(self.config.coarse_timeout_ns)

    def _on_hole_timer(self, qp: QueuePair) -> None:
        """Expired per-hole deadlines: retransmit exactly those holes."""
        st = qp.tx_state
        if st is None:
            return
        now = self.sim.now
        heap = st.hole_heap
        queued = False
        while heap and heap[0][0] <= now:
            _deadline, psn = heappop(heap)
            if psn < st.snd_una or psn in st.sacked:
                continue                      # repaired; entry is dead
            if st.sent_at.get(psn, -1) + self._hole_to > now:
                continue                      # retransmitted since; newer
                                              # heap entry covers it
            if psn not in st.rtx_queued:
                st.rtx_queued.add(psn)
                st.rtx_queue.append(psn)
                queued = True
        if heap:
            st.hole_timer.restart(max(0, heap[0][0] - now))
        if queued:
            self._activate(qp)

    def _on_rto(self, qp: QueuePair) -> None:
        """§4.5 coarse fallback: no cumulative progress for a whole coarse
        period — the path (or its repairs) may be dead.  Counted apart
        from hole repairs and penalized by CC like a real RTO."""
        st = qp.tx_state
        if st is None or st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_coarse_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        st.fast_retx.clear()                  # fresh recovery episode
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn not in st.sacked and psn not in st.rtx_queued:
                st.rtx_queued.add(psn)
                st.rtx_queue.append(psn)
        st.timer.restart(self.config.coarse_timeout_ns)
        self._activate(qp)

    def _advance_cumulative(self, qp: QueuePair, st: _SdrSendState,
                            packet: Packet) -> None:
        new_una = packet.ack_psn + 1
        if new_una <= st.snd_una:
            return
        for psn in range(st.snd_una, new_una):
            st.sent_at.pop(psn, None)
        self._advance_una(qp, st, new_una)
        st.fast_retx = {p for p in st.fast_retx if p >= new_una}
        if new_una >= qp.next_psn:
            # Everything posted is acknowledged: disarm both timers and
            # drop the dead bookkeeping.
            st.timer.cancel()
            st.hole_timer.cancel()
            st.hole_heap.clear()
            st.rtx_queue.clear()
            st.rtx_queued.clear()
            st.sent_at.clear()
        else:
            st.timer.restart(self.config.coarse_timeout_ns)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        self._advance_cumulative(qp, self._send_state(qp), packet)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = self._send_state(qp)
        self._advance_cumulative(qp, st, packet)
        # Merge the ack vector: bit i acknowledges PSN ack_psn + 1 + i.
        base = packet.ack_psn + 1
        bitmap = packet.sack_bitmap
        high = -1
        while bitmap:
            low = bitmap & -bitmap
            psn = base + low.bit_length() - 1
            if st.snd_una <= psn <= st.max_sent:
                st.sacked.add(psn)
                st.sent_at.pop(psn, None)
                if psn > high:
                    high = psn
            bitmap ^= low
        # Vector-driven fast retransmit: a hole with SACK_GAP_PKTS
        # packets SACKed above it is presumed lost.  Once per episode —
        # a re-lost fast retransmission waits for its hole timer.
        gap = SACK_GAP_PKTS
        queued = False
        for psn in range(st.snd_una, high - gap + 1):
            if (psn not in st.sacked and psn not in st.fast_retx
                    and psn not in st.rtx_queued):
                st.fast_retx.add(psn)
                st.rtx_queued.add(psn)
                st.rtx_queue.append(psn)
                queued = True
        if queued:
            self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        """Bounded reorder buffer; every arrival is answered with the
        cumulative ack + ack vector over the OOO buffer.  A packet beyond
        the bound is dropped (not delivered, not acked): the software
        receiver has no state for it and the sender's hole timer re-sends
        it later."""
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        self._accept(st, packet, self._reorder_bound)
        bitmap = 0
        if st.ooo:
            epsn = st.epsn
            for p in st.ooo:
                off = p - epsn
                if off < SACK_VECTOR_BITS:
                    bitmap |= 1 << off
        self._send_ack(qp, PacketKind.SACK if bitmap else PacketKind.ACK,
                       st.epsn - 1, sack_bitmap=bitmap)
