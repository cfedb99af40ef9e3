"""A software TCP (NewReno-style) stack for the Fig 8 comparison.

Fig 8's only role is to show that offloaded RNIC transports beat a
kernel TCP stack on both throughput and latency.  The model keeps the
essential software costs:

* **per-packet host processing** on both send and receive paths
  (syscalls, skb handling, copies) — caps single-stream throughput well
  below line rate;
* **stack traversal latency** added to every packet — dominates small-
  message RTT;
* NewReno congestion control: slow start, congestion avoidance, fast
  retransmit on three duplicate ACKs, RTO fallback.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import (Packet, PacketKind, make_ack,
                              make_data_packet, release)
from repro.obs import spans
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig, _GATED, _NO_WORK)
from repro.sim.engine import Simulator

#: per-packet CPU cost of the software stack (send or receive), ns.
DEFAULT_HOST_OVERHEAD_NS = 450
#: one-way stack traversal latency (interrupts, wakeups), ns.
DEFAULT_STACK_LATENCY_NS = 8_000


class _TcpSendState:
    __slots__ = ("snd_una", "snd_nxt", "max_sent", "cwnd", "ssthresh",
                 "dupacks", "timer", "recover")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.cwnd = 10.0            # packets (IW10)
        self.ssthresh = 1e9
        self.dupacks = 0
        self.timer: Optional[RestartableTimer] = None
        self.recover = -1


class _TcpRecvState:
    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class TcpTransport(RnicTransport):
    """Software TCP endpoint with modelled host overheads."""

    name = "tcp"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig,
                 host_overhead_ns: int = DEFAULT_HOST_OVERHEAD_NS,
                 stack_latency_ns: int = DEFAULT_STACK_LATENCY_NS) -> None:
        super().__init__(sim, host_id, config)
        self.host_overhead_ns = host_overhead_ns
        self.stack_latency_ns = stack_latency_ns
        #: Receive-path delay every inbound packet pays (precomputed).
        self._rx_delay_ns = stack_latency_ns + host_overhead_ns
        self._snd: dict[int, _TcpSendState] = {}
        self._rcv: dict[int, _TcpRecvState] = {}

    def _send_state(self, qp: QueuePair) -> _TcpSendState:
        st = qp.tx_state
        if st is None:
            st = _TcpSendState()
            st.timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _TcpRecvState:
        st = qp.rx_state
        if st is None:
            st = _TcpRecvState()
            self._rcv[qp.qpn] = qp.rx_state = st
        return st

    # -------------------------------------------------------------- sender
    def _qp_poll(self, qp: QueuePair, now: int):
        """One-call scheduler probe (see base class)."""
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        snd_nxt = st.snd_nxt
        if snd_nxt >= qp.next_psn:
            return _NO_WORK
        if qp.next_send_ns > now:
            return _GATED
        if snd_nxt - st.snd_una >= max(1, int(st.cwnd)):
            return None
        packet = self._build(qp, st, snd_nxt, is_retx=snd_nxt <= st.max_sent)
        st.max_sent = max(st.max_sent, snd_nxt)
        st.snd_nxt = snd_nxt + 1
        # CPU cost of the send path: pace the next segment.
        qp.next_send_ns = max(qp.next_send_ns, now + self.host_overhead_ns)
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
        if st.snd_nxt - st.snd_una >= max(1, int(st.cwnd)):
            return None
        packet = self._build(qp, st, st.snd_nxt,
                             is_retx=st.snd_nxt <= st.max_sent)
        st.max_sent = max(st.max_sent, st.snd_nxt)
        st.snd_nxt += 1
        # CPU cost of the send path: pace the next segment.
        qp.next_send_ns = max(qp.next_send_ns,
                              self.sim.now + self.host_overhead_ns)
        return packet

    def _build(self, qp: QueuePair, st: _TcpSendState, psn: int,
               is_retx: bool) -> Packet:
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
            msg.size_bytes, off, False, -1, 0, qp.entropy, is_retx, 0,
            self.pool)
        packet.kind = PacketKind.TCP_DATA
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
        if not st.timer.armed:
            st.timer.restart(self.config.rto_ns)
        return packet

    def _on_rto(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        self.count_timeout(qp.psn_to_message(st.snd_una).flow)
        st.ssthresh = max(2.0, st.cwnd / 2)
        st.cwnd = 1.0
        st.snd_nxt = st.snd_una
        st.dupacks = 0
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_tcp_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        ack = packet.ack_psn + 1
        if ack > st.snd_una:
            newly = ack - st.snd_una
            st.snd_una = ack
            st.dupacks = 0
            if st.cwnd < st.ssthresh:
                st.cwnd += newly                       # slow start
            else:
                st.cwnd += newly / max(1.0, st.cwnd)   # congestion avoidance
            cc = qp.cc
            if cc.wants_ack:
                cc.on_ack(newly * self.config.mtu_payload, self.sim.now)
            for msg in qp.send_queue:
                if not msg.acked and st.snd_una >= msg.base_psn + msg.num_pkts:
                    msg.acked = True
                    if msg.flow.tx_complete_ns is None and all(
                            m.acked for m in qp.messages.values()
                            if m.flow is msg.flow):
                        msg.flow.tx_complete_ns = self.sim.now
            if st.snd_una >= qp.next_psn:
                st.timer.cancel()
            else:
                st.timer.restart(self.config.rto_ns)
        elif ack == st.snd_una and st.snd_una < st.snd_nxt:
            st.dupacks += 1
            if st.dupacks == 3 and st.snd_una > st.recover:
                # Fast retransmit / NewReno recovery.
                st.ssthresh = max(2.0, st.cwnd / 2)
                st.cwnd = st.ssthresh
                st.recover = st.snd_nxt - 1
                st.snd_nxt = st.snd_una
                self.count_retransmit(qp.psn_to_message(st.snd_una).flow)
        self._activate(qp)
        release(self.sim, packet)

    # ------------------------------------------------------------ receiver
    def _on_tcp_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        # TCP's dispatch bypasses the base receive() (the stack delay is
        # paid first), so the span tracker's arrival hook lives here.
        sp = spans._active
        if sp is not None:
            sp.data_arrival(packet.flow_id, packet.psn, self.sim.now,
                            self._actor)
        flow = self.flow_of(packet)
        if packet.psn < st.epsn or packet.psn in st.ooo:
            if flow is not None:
                flow.stats.dup_pkts_received += 1
        else:
            if flow is not None:
                flow.deliver(packet.payload_bytes, self.sim.now)
            if packet.psn == st.epsn:
                st.epsn += 1
                while st.epsn in st.ooo:
                    st.ooo.discard(st.epsn)
                    st.epsn += 1
            else:
                st.ooo.add(packet.psn)
        ack = make_ack(self.host_id, qp.peer_host_id, -1, qp.peer_qpn,
                       qp.qpn, PacketKind.TCP_ACK, st.epsn - 1, dcp=False,
                       entropy=qp.entropy, pool=self.pool)
        self.nic.send_control(ack)
        release(self.sim, packet)

    # ----------------------------------------------------------- dispatch
    def receive(self, packet: Packet, in_port: int = 0) -> None:
        """Every packet pays the receive-path stack costs first.

        The deferred callback is the kind-specific handler itself (no
        dispatch trampoline); handlers release the packet when done.
        """
        kind = packet.kind
        if kind is PacketKind.PAUSE:
            self.nic.pause()
            release(self.sim, packet)
            return
        if kind is PacketKind.RESUME:
            self.nic.resume()
            release(self.sim, packet)
            return
        qp = self.qps.get(packet.qpn)
        if qp is None:
            release(self.sim, packet)
            return
        if kind is PacketKind.TCP_DATA:
            fn = self._on_tcp_data
        elif kind is PacketKind.TCP_ACK:
            fn = self._on_tcp_ack
        else:
            fn = self._drop
        self.sim.call_after(self._rx_delay_ns, fn, qp, packet)

    def _drop(self, qp: QueuePair, packet: Packet) -> None:
        release(self.sim, packet)

    # unused RNIC handlers
    def _on_data(self, qp, packet):  # pragma: no cover
        raise ValueError("TCP stack received a RoCE packet")

    def _on_ack(self, qp, packet):  # pragma: no cover
        raise ValueError("TCP stack received a RoCE ACK")
