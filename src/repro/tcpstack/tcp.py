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

from repro.net.packet import Packet, PacketKind
from repro.obs import spans
from repro.rnic.base import QueuePair, TransportConfig, _GATED, _NO_WORK
from repro.rnic.window import SendState, WindowTransport
from repro.sim.engine import Simulator

#: per-packet CPU cost of the software stack (send or receive), ns.
DEFAULT_HOST_OVERHEAD_NS = 450
#: one-way stack traversal latency (interrupts, wakeups), ns.
DEFAULT_STACK_LATENCY_NS = 8_000


class _TcpSendState(SendState):
    """Go-back pointer plus NewReno's window variables."""

    __slots__ = ("cwnd", "ssthresh", "dupacks", "recover")

    def __init__(self) -> None:
        super().__init__()
        self.cwnd = 10.0            # packets (IW10)
        self.ssthresh = 1e9
        self.dupacks = 0
        self.recover = -1


class TcpTransport(WindowTransport):
    """Software TCP endpoint with modelled host overheads."""

    name = "tcp"
    SendState = _TcpSendState

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig,
                 host_overhead_ns: int = DEFAULT_HOST_OVERHEAD_NS,
                 stack_latency_ns: int = DEFAULT_STACK_LATENCY_NS) -> None:
        super().__init__(sim, host_id, config)
        self.host_overhead_ns = host_overhead_ns
        self.stack_latency_ns = stack_latency_ns
        #: Receive-path delay every inbound packet pays (precomputed).
        self._rx_delay_ns = stack_latency_ns + host_overhead_ns

    # -------------------------------------------------------------- sender
    def _qp_poll(self, qp: QueuePair, now: int):
        """Go-back pointer under the NewReno window, paced by CPU cost."""
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        psn = st.snd_nxt
        if psn >= qp.next_psn:
            return _NO_WORK
        if qp.next_send_ns > now:
            return _GATED
        if psn - st.snd_una >= max(1, int(st.cwnd)):
            return None
        msg = qp.psn_to_message(psn)
        packet = self._build(
            qp, msg, psn,
            msg.payload_of(psn - msg.base_psn, self.config.mtu_payload),
            is_retx=psn <= st.max_sent)
        packet.kind = PacketKind.TCP_DATA
        self._on_transmit(qp, st, psn, packet)
        st.max_sent = max(st.max_sent, psn)
        st.snd_nxt = psn + 1
        # CPU cost of the send path: pace the next segment.
        qp.next_send_ns = max(qp.next_send_ns, now + self.host_overhead_ns)
        return packet

    def _on_rto(self, qp: QueuePair) -> None:
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
        st = self._send_state(qp)
        ack = packet.ack_psn + 1
        if ack > st.snd_una:
            newly = ack - st.snd_una
            self._advance_una(qp, st, ack)
            st.dupacks = 0
            if st.cwnd < st.ssthresh:
                st.cwnd += newly                       # slow start
            else:
                st.cwnd += newly / max(1.0, st.cwnd)   # congestion avoidance
            if ack >= qp.next_psn:
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
        self._accept(st, packet)
        self._send_ack(qp, PacketKind.TCP_ACK, st.epsn - 1)

    # ----------------------------------------------------------- dispatch
    def receive(self, packet: Packet, in_port: int = 0) -> None:
        """Every packet pays the receive-path stack costs first.

        The deferred callback is the kind-specific handler itself (no
        dispatch trampoline).
        """
        kind = packet.kind
        if kind is PacketKind.PAUSE:
            self.nic.pause()
            return
        if kind is PacketKind.RESUME:
            self.nic.resume()
            return
        qp = self.qps.get(packet.qpn)
        if qp is None:
            return
        if kind is PacketKind.TCP_DATA:
            fn = self._on_tcp_data
        elif kind is PacketKind.TCP_ACK:
            fn = self._on_tcp_ack
        else:
            fn = self._drop
        self.sim.call_after(self._rx_delay_ns, fn, qp, packet)

    def _drop(self, qp: QueuePair, packet: Packet) -> None:
        """No-op, but still scheduled: the deferred event is part of the
        pinned event stream."""

    # unused RNIC handlers
    def _on_data(self, qp, packet):  # pragma: no cover
        raise ValueError("TCP stack received a RoCE packet")

    def _on_ack(self, qp, packet):  # pragma: no cover
        raise ValueError("TCP stack received a RoCE ACK")
