"""Common RNIC machinery shared by every transport.

The model mirrors the microarchitecture described in §4.3 of the paper:

* a **QP scheduler** round-robins among active QPs, giving each QP up to
  ``ROUND_QUOTA_BYTES`` per scheduling round (fetch-and-drop WQE
  handling is abstracted to this quota);
* the NIC transmitter *pulls* packets from the transport
  (:meth:`RnicTransport.poll_tx`), so per-QP congestion-control pacing
  and window checks happen at wire-pull time, like hardware;
* receivers push protocol responses (ACK/SACK/NAK/CNP, turned-around HO
  packets) into a small control FIFO served with strict priority.

Transports subclass :class:`RnicTransport` and implement the sender and
receiver state machines; every baseline does so through the PSN-window
skeleton in :mod:`repro.rnic.window`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Optional

from repro.cc.base import CongestionControl, StaticWindowCc
from repro.net.packet import Packet, PacketKind, make_cnp
from repro.obs import registry as metrics
from repro.obs import spans
from repro.obs.registry import CounterBlock
from repro.sim.engine import CancelledToken, Simulator
from repro.sim.units import serialization_ns

_qpn_counter = itertools.count(1)
_flow_counter = itertools.count(1)

#: Sentinels returned by :meth:`RnicTransport._qp_poll` — "nothing
#: posted, leave the round-robin ring" vs "gated until next_send_ns,
#: stay in the ring".
_NO_WORK = object()
_GATED = object()

#: Bytes a QP may send per QP-scheduler round before the next QP's turn.
ROUND_QUOTA_BYTES = 16_384


@dataclass
class TransportConfig:
    """Knobs shared by all transports (DCP-specific ones included)."""

    mtu_payload: int = 1000              # payload bytes per packet (1 KB MTU)
    max_message_bytes: int = 256_000     # flows split into <=this WQEs (NCCL-style)
    window_bytes: int = 125_000          # default BDP window (100G x 10us)
    rto_ns: int = 2_000_000              # retransmission timeout (RTO_high)
    rto_low_ns: int = 300_000            # IRN's RTO_low; SDR's per-hole timer
    # --- DCP (§4.3, §4.5) -------------------------------------------------
    pcie_rtt_ns: int = 1_000             # host <-> RNIC round trip
    coarse_timeout_ns: int = 4_000_000   # DCP fallback timer (§4.5)
    dcp_naive_retrans: bool = False      # ablation: per-HO fetch (2 PCIe RTs each)
    # --- SDR selective repeat (reliability-scheme frontier) ----------------
    sdr_reorder_window_pkts: int = 0     # rx reorder bound; 0 -> 2x window/mtu
    # --- misc --------------------------------------------------------------
    cnp_interval_ns: int = 50_000        # DCQCN receiver CNP moderation


class FlowStats(CounterBlock):
    """Counters accumulated per flow; consumed by the analysis layer.

    Registered as ``flow.<flow_id>.*`` only when the installed registry
    asked for per-flow metrics (``MetricsRegistry(per_flow=True)``) —
    incast workloads create thousands of flows and most experiments only
    need the aggregates.
    """

    FIELDS = ("data_pkts_sent", "retx_pkts_sent", "timeouts",
              "acks_received", "trims_seen", "dup_pkts_received")
    __slots__ = FIELDS


class TransportStats(CounterBlock):
    """Per-RNIC transport counters, registered as ``rnic.<name><host>.*``.

    Every transport carries the full field set; fields a protocol never
    touches (e.g. ``ho_turned`` on IRN) simply stay zero, which keeps
    the exported schema uniform across the baseline matrix.
    """

    FIELDS = ("retx_pkts", "timeouts", "coarse_timeouts", "ho_received",
              "ho_turned", "stale_ho", "spurious_retx", "ooo_drops",
              "tlp_probes")
    __slots__ = FIELDS


class Flow:
    """One unidirectional transfer (what the paper calls a flow).

    FCT is measured receiver-side: the flow completes when the last
    payload byte has been written to application memory.
    """

    def __init__(self, src: int, dst: int, size_bytes: int, start_ns: int,
                 flow_id: Optional[int] = None, tag: str = "") -> None:
        self.flow_id = flow_id if flow_id is not None else next(_flow_counter)
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_ns = start_ns
        self.tag = tag
        self.rx_complete_ns: Optional[int] = None
        self.tx_complete_ns: Optional[int] = None
        self.rx_bytes = 0
        self.stats = FlowStats()
        reg = metrics.active()
        if reg is not None and reg.per_flow:
            reg.register_block(f"flow.{self.flow_id}", self.stats)
        self.on_complete: Optional[Callable[["Flow"], None]] = None

    def deliver(self, payload_bytes: int, now_ns: int) -> None:
        """Receiver-side: payload written to application memory.

        Fires ``on_complete`` exactly once, when the last byte lands.
        """
        self.rx_bytes += payload_bytes
        if self.rx_complete_ns is None and self.rx_bytes >= self.size_bytes:
            self.rx_complete_ns = now_ns
            if self.on_complete is not None:
                self.on_complete(self)

    @property
    def completed(self) -> bool:
        return self.rx_complete_ns is not None

    def fct_ns(self) -> int:
        if self.rx_complete_ns is None:
            raise ValueError(f"flow {self.flow_id} has not completed")
        return self.rx_complete_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover
        state = f"done@{self.rx_complete_ns}" if self.completed else "active"
        return f"Flow({self.flow_id} {self.src}->{self.dst} {self.size_bytes}B {state})"


class Message:
    """One work request (WQE) posted to a QP's send queue."""

    __slots__ = ("msn", "ssn", "flow", "size_bytes", "num_pkts", "base_psn",
                 "acked", "completed_rx")

    def __init__(self, msn: int, ssn: int, flow: Flow, size_bytes: int,
                 num_pkts: int, base_psn: int) -> None:
        self.msn = msn
        self.ssn = ssn
        self.flow = flow
        self.size_bytes = size_bytes
        self.num_pkts = num_pkts
        self.base_psn = base_psn
        self.acked = False
        self.completed_rx = False

    def payload_of(self, offset_pkts: int, mtu_payload: int) -> int:
        """Payload size of packet ``offset_pkts`` within this message."""
        if offset_pkts < 0 or offset_pkts >= self.num_pkts:
            raise IndexError(f"packet {offset_pkts} outside message of "
                             f"{self.num_pkts} packets")
        if offset_pkts < self.num_pkts - 1:
            return mtu_payload
        rem = self.size_bytes - (self.num_pkts - 1) * mtu_payload
        return rem


class QueuePair:
    """A reliable connection endpoint.

    The same object carries the sender-side send queue and the
    transport's private per-QP sender and receiver state.
    """

    def __init__(self, host_id: int, peer_host_id: int,
                 cc: Optional[CongestionControl] = None) -> None:
        self.qpn = next(_qpn_counter)
        self.peer_qpn = -1
        self.host_id = host_id
        self.peer_host_id = peer_host_id
        self.cc = cc or StaticWindowCc(window_bytes=1 << 30)
        # --- sender state -------------------------------------------------
        self.send_queue: deque[Message] = deque()   # posted, not yet acked
        self.unacked_msgs: dict[Flow, int] = {}     # per flow, within it
        self.messages: dict[int, Message] = {}
        self.next_msn = 0
        self.next_psn = 0
        self.posted_bytes = 0
        self.outstanding_bytes = 0
        self.next_send_ns = 0            # pacing gate
        self.round_bytes_left = 0        # QP-scheduler round quota
        self.entropy = 0                 # default path entropy (ECMP)
        self._bases: list[int] = []      # base_psn per message, for bisect
        self._last_msg = None            # psn_to_message single-entry cache
        self.last_cnp_ns = -1 << 60      # receiver-side CNP moderation
        # Transport-private per-QP state, cached here so the per-packet
        # paths skip a dict lookup (each QP belongs to one transport).
        self.tx_state = None
        self.rx_state = None

    def post(self, flow: Flow, size_bytes: int, mtu_payload: int) -> Message:
        """Append a message to the send queue (one WQE)."""
        num_pkts = max(1, -(-size_bytes // mtu_payload))
        msg = Message(self.next_msn, self.next_msn, flow, size_bytes,
                      num_pkts, self.next_psn)
        self.next_msn += 1
        self.next_psn += num_pkts
        self.posted_bytes += size_bytes
        self.send_queue.append(msg)
        self.unacked_msgs[flow] = self.unacked_msgs.get(flow, 0) + 1
        self.messages[msg.msn] = msg
        self._bases.append(msg.base_psn)
        return msg

    def complete_head(self, now_ns: int) -> Message:
        """Retire the oldest unacknowledged message (acks are in order).

        The flow's ``tx_complete_ns`` is set when its last message posted
        so far on this QP is acknowledged; the per-flow count makes that
        one dict update instead of a walk over every message ever posted.
        """
        msg = self.send_queue.popleft()
        msg.acked = True
        flow = msg.flow
        left = self.unacked_msgs[flow] - 1
        if left:
            self.unacked_msgs[flow] = left
        else:
            del self.unacked_msgs[flow]
            if flow.tx_complete_ns is None:
                flow.tx_complete_ns = now_ns
        return msg

    def complete_through(self, snd_una: int, now_ns: int) -> None:
        """Retire every message wholly below the cumulative ack point."""
        queue = self.send_queue
        while queue:
            head = queue[0]
            if snd_una < head.base_psn + head.num_pkts:
                return
            self.complete_head(now_ns)

    def psn_to_message(self, psn: int) -> Message:
        """Locate the message containing ``psn`` (binary search by base).

        Messages are created with monotonically increasing base_psn and
        msn (list index == msn), so a bisect over the recorded bases
        resolves any PSN in O(log n) — retransmission paths routinely
        ask about old PSNs, which made the previous scan-from-the-end
        quadratic on long flows.
        """
        msg = self._last_msg
        if msg is not None and msg.base_psn <= psn < msg.base_psn + msg.num_pkts:
            return msg
        idx = bisect_right(self._bases, psn) - 1
        if idx >= 0:
            msg = self.messages.get(idx)
            if (msg is not None
                    and msg.base_psn <= psn < msg.base_psn + msg.num_pkts):
                self._last_msg = msg
                return msg
        raise KeyError(f"PSN {psn} not found on QP {self.qpn}")


class RestartableTimer:
    """A restartable timer built on :meth:`Simulator.reschedule`."""

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self.sim = sim
        self.callback = callback
        self._token: Optional[CancelledToken] = None

    @property
    def armed(self) -> bool:
        return self._token is not None and not self._token.cancelled

    def restart(self, delay_ns: int) -> None:
        # Once per ACK on every transport: a later deadline moves the
        # token's key and leaves its one heap entry where it is.
        self._token = self.sim.reschedule(self._token, delay_ns, self._fire)

    def cancel(self) -> None:
        token = self._token
        if token is not None:
            token.cancel()
            self._token = None

    def _fire(self) -> None:
        self._token = None
        self.callback()


class HostNic:
    """The wire-side transmitter of a host.

    Control responses (ACKs, CNPs, turned-around HO packets) sit in a
    strict-priority FIFO; data packets are pulled from the transport on
    demand, so CC decisions are made at the moment the wire frees up.
    ``on_wire`` is the packet being serialized; its completion goes
    straight onto the simulator's heap as ``(now + ser, seq, None,
    _tx_done, nic)``, as in :class:`repro.net.port.EgressPort`.
    """

    def __init__(self, sim: Simulator, rate_bits_per_ns: float,
                 name: str = "nic") -> None:
        self.sim = sim
        self.rate = rate_bits_per_ns
        # Integer line rates skip the float path in serialization; the
        # rounding matches serialization_ns exactly.
        self._int_rate = (int(rate_bits_per_ns)
                          if float(rate_bits_per_ns).is_integer() else 0)
        self.name = name
        self.link = None
        self.source = None               # the transport (poll_tx provider)
        self.ctrl: deque[Packet] = deque()
        #: The packet being serialized; None while the transmitter is idle.
        self.on_wire: Optional[Packet] = None
        self.paused = False
        # Plain ints on purpose: _tx_done is the hottest per-packet path
        # on direct topologies, so the registry observes them as gauges
        # instead of taxing every transmit with a counter indirection.
        self.tx_packets = 0
        self.tx_bytes = 0
        metrics.gauge(f"nic.{name}.tx_packets", self, "tx_packets")
        metrics.gauge(f"nic.{name}.tx_bytes", self, "tx_bytes")

    def bind(self, source) -> None:
        self.source = source

    def ser_ns(self, size_bytes: int) -> int:
        """Serialization time of one frame at this NIC's line rate."""
        rate = self._int_rate
        if rate:
            return -(-size_bytes * 8 // rate)
        return serialization_ns(size_bytes, self.rate)

    def send_control(self, packet: Packet) -> None:
        if self.on_wire is not None or self.paused or self.link is None:
            self.ctrl.append(packet)
            return
        # Idle transmitter: put the frame straight on the wire (the
        # FIFO is drained first so ordering is preserved).
        if self.ctrl:
            self.ctrl.append(packet)
            packet = self.ctrl.popleft()
        self.on_wire = packet
        rate = self._int_rate
        if rate:
            ser = -(-packet.size_bytes * 8 // rate)
        else:
            ser = serialization_ns(packet.size_bytes, self.rate)
        sim = self.sim
        sim._seqn = seq = sim._seqn + 1
        heappush(sim._heap, (sim.now + ser, seq, None, _tx_done, self))

    def pause(self) -> None:
        sp = spans._active
        if sp is not None and not self.paused:
            sp.pause(self.name, self.sim.now)
        self.paused = True

    def resume(self) -> None:
        sp = spans._active
        if sp is not None and self.paused:
            sp.resume(self.name, self.sim.now)
        self.paused = False
        if self.on_wire is None:
            _tx_done(self)


def _tx_done(nic: HostNic) -> None:
    """``nic.on_wire`` is serialized: hand it to the link, then pull the
    next packet.  Called on an idle NIC (``on_wire`` None), it only
    pulls: that is how a PFC RESUME, a newly active QP and a pacing
    wake-up restart the transmitter.

    A module function, not a method: the heap entry carries the NIC as
    its argument, so no bound method is made per packet.
    """
    sim = nic.sim
    packet = nic.on_wire
    if packet is not None:
        nic.on_wire = None
        nic.tx_packets += 1
        nic.tx_bytes += packet.size_bytes
        sp = spans._active
        if sp is not None:
            sp.nic_tx(packet, sim.now, nic.ser_ns(packet.size_bytes),
                      nic.name)
        # Always through the method: RIFL's shim and tests replace
        # link.deliver on the instance, so the Tx path must not bypass it.
        nic.link.deliver(packet)
    if nic.paused or nic.link is None:
        return
    if nic.ctrl:
        nxt = nic.ctrl.popleft()
    elif nic.source is not None:
        nxt = nic.source.poll_tx()
    else:
        return
    if nxt is None:
        return
    nic.on_wire = nxt
    rate = nic._int_rate
    if rate:
        ser = -(-nxt.size_bytes * 8 // rate)
    else:
        ser = serialization_ns(nxt.size_bytes, nic.rate)
    sim._seqn = seq = sim._seqn + 1
    heappush(sim._heap, (sim.now + ser, seq, None, _tx_done, nic))


class RnicTransport:
    """Base class for all transports (GBN, IRN, MP-RDMA, DCP, ...).

    Subclasses implement:

    * :meth:`_qp_poll` — the one scheduler hook: work check, pacing gate
      and the next packet this QP wants on the wire, in a single call;
    * :meth:`_new_send_state` / :meth:`_new_recv_state` — the per-QP
      state, created lazily by :meth:`_send_state` / :meth:`_recv_state`;
    * ``_on_data`` / ``_on_ack`` / other receive handlers;
    * :meth:`inflight_bytes` for the sampler gauge.
    """

    #: True when the transport speaks the DCP wire format (tagged packets).
    dcp_wire = False
    name = "base"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig) -> None:
        self.sim = sim
        self.host_id = host_id
        self.config = config
        self.nic: Optional[HostNic] = None
        self.qps: dict[int, QueuePair] = {}
        self._rr: deque[QueuePair] = deque()
        self._rr_member: set[int] = set()
        self._kick_token: Optional[CancelledToken] = None
        self._kick_at = 0                # when the pending wake-up fires
        self.stats = TransportStats()
        self._actor = f"{self.name}{host_id}"
        metrics.register_block(f"rnic.{self._actor}", self.stats)
        metrics.gauge(f"rnic.{self._actor}.inflight_bytes",
                      self.inflight_bytes)
        #: flow_id -> Flow for flows whose data this host receives.
        self.rx_flows: dict[int, Flow] = {}
        #: qpn -> private sender / receiver state (also cached on the QP).
        self._snd: dict = {}
        self._rcv: dict = {}

    # ------------------------------------------------------------- wiring
    def attach_nic(self, nic: HostNic) -> None:
        self.nic = nic
        nic.bind(self)

    def register_qp(self, qp: QueuePair) -> None:
        self.qps[qp.qpn] = qp

    @staticmethod
    def connect(a: "RnicTransport", b: "RnicTransport",
                cc_a: Optional[CongestionControl] = None,
                cc_b: Optional[CongestionControl] = None) -> tuple[QueuePair, QueuePair]:
        """Create a connected QP pair between two transports.

        Without an explicit CC module each side gets the configured
        static window (IRN-style BDP flow control).
        """
        if cc_a is None:
            cc_a = StaticWindowCc(window_bytes=a.config.window_bytes)
        if cc_b is None:
            cc_b = StaticWindowCc(window_bytes=b.config.window_bytes)
        qa = QueuePair(a.host_id, b.host_id, cc_a)
        qb = QueuePair(b.host_id, a.host_id, cc_b)
        qa.peer_qpn, qb.peer_qpn = qb.qpn, qa.qpn
        qa.entropy = qa.qpn
        qb.entropy = qb.qpn
        a.register_qp(qa)
        b.register_qp(qb)
        return qa, qb

    # ------------------------------------------------------------ sending
    def post_message(self, qp: QueuePair, flow: Flow, size_bytes: int) -> Message:
        """verbs post_send: queue a message and wake the transmitter."""
        msg = qp.post(flow, size_bytes, self.config.mtu_payload)
        self._activate(qp)
        return msg

    def post_flow(self, qp: QueuePair, flow: Flow) -> list[Message]:
        """Post a whole flow as a train of messages (WQEs).

        Upper layers (NCCL and friends) split transfers into messages of
        a few hundred KB to MB; splitting matters to transports with
        message-granular acknowledgments (DCP's eMSN).
        """
        chunk = max(self.config.mtu_payload, self.config.max_message_bytes)
        remaining = flow.size_bytes
        messages = []
        while remaining > 0:
            part = min(chunk, remaining)
            messages.append(self.post_message(qp, flow, part))
            remaining -= part
        return messages

    def _activate(self, qp: QueuePair) -> None:
        if qp.qpn not in self._rr_member:
            self._rr.append(qp)
            self._rr_member.add(qp.qpn)
        nic = self.nic
        if nic is not None and nic.on_wire is None:
            _tx_done(nic)

    def _send_state(self, qp: QueuePair):
        st = qp.tx_state
        if st is None:
            self._snd[qp.qpn] = qp.tx_state = st = self._new_send_state(qp)
        return st

    def _recv_state(self, qp: QueuePair):
        st = qp.rx_state
        if st is None:
            self._rcv[qp.qpn] = qp.rx_state = st = self._new_recv_state(qp)
        return st

    def poll_tx(self) -> Optional[Packet]:
        """NIC pull: next packet from the QP scheduler, or None."""
        now = self.sim.now
        rr = self._rr
        earliest_gate: Optional[int] = None
        poll = self._qp_poll
        n = len(rr)
        while n:
            n -= 1
            qp = rr[0]
            r = poll(qp, now)
            if r is None:
                rr.rotate(-1)
                continue
            if r is _NO_WORK:
                rr.popleft()
                self._rr_member.discard(qp.qpn)
                continue
            if r is _GATED:
                gate = qp.next_send_ns
                if earliest_gate is None or gate < earliest_gate:
                    earliest_gate = gate
                rr.rotate(-1)
                continue
            cc = qp.cc
            if cc.paces:
                gap = cc.pacing_delay_ns(r.size_bytes)
                if gap > 0:
                    qp.next_send_ns = now + gap
            qp.round_bytes_left -= r.size_bytes
            if qp.round_bytes_left <= 0:
                qp.round_bytes_left = ROUND_QUOTA_BYTES
                rr.rotate(-1)
            return r
        if earliest_gate is not None:
            self._schedule_kick(earliest_gate)
        return None

    def _schedule_kick(self, at_ns: int) -> None:
        """Wake the NIC at ``at_ns``.

        One wake-up is pending at a time, the earliest asked for: a
        later one is cancelled and replaced (cancelled events are not
        counted), because a QP gated until ``at_ns`` must not wait for
        another QP's longer pacing gap.
        """
        token = self._kick_token
        if token is not None and not token.cancelled:
            if self._kick_at <= at_ns:
                return
            token.cancel()
        self._kick_at = at_ns
        self._kick_token = self.sim.schedule(max(0, at_ns - self.sim.now),
                                             self._kick_now)

    def _kick_now(self) -> None:
        self._kick_token = None
        nic = self.nic
        if nic is not None and nic.on_wire is None:
            _tx_done(nic)

    # ----------------------------------------------------------- receiving
    def receive(self, packet: Packet) -> None:
        """Wire-side entry point: dispatch straight to the handler.

        Hosts bind their ingress links directly to this method, so a
        delivered packet pays exactly one dispatch frame.  Handlers only
        read the packet (retransmissions are rebuilt from message
        state); the one exception is HO, which the receiver turns around
        and re-sends as the *same object* (§4.1).  PFC frames reach the
        NIC through :meth:`Host.pfc_frame`, never here.
        """
        qp = self.qps.get(packet.qpn)
        if qp is None:
            return                      # stale packet for a destroyed QP
        kind = packet.kind
        if kind == PacketKind.DATA:
            sp = spans._active
            if sp is not None:
                sp.data_arrival(packet.flow_id, packet.psn, self.sim.now,
                                self._actor)
            self._on_data(qp, packet)
        elif kind == PacketKind.ACK:
            self._on_ack(qp, packet)
        elif kind == PacketKind.SACK:
            self._on_sack(qp, packet)
        elif kind == PacketKind.NAK:
            self._on_nak(qp, packet)
        elif kind == PacketKind.HO:
            self._on_ho(qp, packet)
        elif kind == PacketKind.CNP:
            qp.cc.on_cnp(self.sim.now)
        else:  # pragma: no cover
            raise ValueError(f"unexpected packet kind {kind}")

    # --- hooks subclasses override ---------------------------------------
    def _qp_poll(self, qp: QueuePair, now: int):
        """Scheduler probe for one QP.

        Returns ``_NO_WORK`` (nothing posted — leave the ring),
        ``_GATED`` (pacing/CPU gate at ``qp.next_send_ns`` — stay),
        ``None`` (has work but cannot send yet — stay), or the next
        packet.
        """
        raise NotImplementedError

    def _new_send_state(self, qp: QueuePair):
        raise NotImplementedError

    def _new_recv_state(self, qp: QueuePair):
        raise NotImplementedError

    def inflight_bytes(self) -> int:
        """Bytes sent but not yet acknowledged (the sampler gauge)."""
        raise NotImplementedError

    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        raise NotImplementedError

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        raise NotImplementedError

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        raise NotImplementedError("this transport does not use SACK")

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:
        raise NotImplementedError("this transport does not use NAK")

    def _on_ho(self, qp: QueuePair, packet: Packet) -> None:
        raise NotImplementedError("this transport does not use HO packets")

    def expect_flow(self, flow: Flow) -> None:
        """Register a flow whose data this host will receive."""
        self.rx_flows[flow.flow_id] = flow

    def maybe_send_cnp(self, qp: QueuePair, packet: Packet) -> None:
        """Echo an ECN mark as a CNP, rate-limited per QP (DCQCN)."""
        if not packet.ecn_ce:
            return
        if self.sim.now - qp.last_cnp_ns < self.config.cnp_interval_ns:
            return
        qp.last_cnp_ns = self.sim.now
        cnp = make_cnp(self.host_id, qp.peer_host_id, flow_id=packet.flow_id,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, dcp=self.dcp_wire,
                       sim=self.sim)
        self.nic.send_control(cnp)

    def flow_of(self, packet: Packet) -> Optional[Flow]:
        """Resolve the flow a received data packet belongs to."""
        return self.rx_flows.get(packet.flow_id)

    # ------------------------------------------------------------- stats
    def count_retransmit(self, flow: Flow) -> None:
        flow.stats.retx_pkts_sent += 1
        self.stats.retx_pkts += 1
        sp = spans._active
        if sp is not None:
            sp.mark(self.sim.now, "retx", flow.flow_id, self._actor, {})

    def count_timeout(self, flow: Flow, **detail: int) -> None:
        """A retransmission timer fired; ``detail`` rides on its marker."""
        flow.stats.timeouts += 1
        self.stats.timeouts += 1
        sp = spans._active
        if sp is not None:
            sp.timeout(flow.flow_id, self.sim.now, self._actor, detail)

    def count_coarse_timeout(self, flow: Flow, **detail: int) -> None:
        """A coarse-grained fallback timer fired (§4.5).

        Counted separately from regular RTOs: the chaos campaign uses
        the split to tell loss-notification recovery apart from the
        crash-survival path.
        """
        self.stats.coarse_timeouts += 1
        self.count_timeout(flow, **detail)


class Host:
    """A server: one NIC, one transport, application callbacks."""

    def __init__(self, sim: Simulator, host_id: int, nic: HostNic,
                 transport: RnicTransport) -> None:
        self.sim = sim
        self.host_id = host_id
        self.nic = nic
        self.transport = transport
        transport.attach_nic(nic)
        # Ingress links resolve ``dst.receive`` once at wiring time; the
        # instance attribute routes them straight to the transport's
        # dispatch, skipping a per-packet forwarding frame here.
        self.receive = transport.receive

    def receive(self, packet: Packet) -> None:  # type: ignore[no-redef]
        # Shadowed by the instance attribute set in __init__; kept so
        # the Device protocol reads naturally on the class.
        self.transport.receive(packet)

    def pfc_frame(self, frame: Packet) -> None:
        """A PFC PAUSE/RESUME from the attached switch port: stop or
        restart the NIC's transmitter."""
        if frame.kind == PacketKind.PAUSE:
            self.nic.pause()
        else:
            self.nic.resume()

    def __repr__(self) -> str:
        # Stable across processes: link names derive from device reprs,
        # and the link loss RNG is seeded from its name — an
        # address-based default repr would break run-to-run determinism.
        return f"host{self.host_id}"
