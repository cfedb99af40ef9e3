"""Protocol edge cases across transports: boundary conditions the main
behavioural suites do not pin down."""

from collections import deque

import pytest

from repro.cc.base import CongestionControl
from repro.core.dcp import DcpTransport
from repro.experiments.common import _transport_registry
from repro.net.packet import PacketKind, make_ack
from repro.rnic.base import Flow, RnicTransport, TransportConfig
from repro.rnic.gbn import GbnTransport
from repro.rnic.irn import IrnTransport
from tests.conftest import drain, make_direct_pair, send_flow


class TestGbnEdges:
    def test_nak_not_repeated_while_gap_persists(self):
        """GBN receivers NAK once per sequence-error episode, or the NAK
        storm would multiply retransmissions."""
        sim, fab, a, b = make_direct_pair(GbnTransport)
        flow = send_flow(sim, a, b, 20_000)
        naks = []
        orig = b.nic.send_control

        def count(pkt):
            if pkt.kind is PacketKind.NAK:
                naks.append(pkt.ack_psn)
            orig(pkt)

        b.nic.send_control = count
        # drop packets 5..7 once each: a single gap, three OOO arrivals
        link = a.nic.link
        orig_deliver = link.deliver
        dropped = set()

        def lossy(pkt):
            if (pkt.kind is PacketKind.DATA and pkt.psn in (5, 6, 7)
                    and pkt.psn not in dropped):
                dropped.add(pkt.psn)
                return
            orig_deliver(pkt)

        link.deliver = lossy
        drain(sim)
        assert flow.completed
        # one NAK for the whole gap episode (retransmits repair the rest)
        assert len(naks) <= 2

    def test_stale_nak_ignored(self):
        sim, fab, a, b = make_direct_pair(GbnTransport)
        flow = send_flow(sim, a, b, 20_000)
        drain(sim)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        done_nxt = st.snd_nxt
        stale = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                         kind=PacketKind.NAK, ack_psn=done_nxt + 5)
        a._on_nak(qp, stale)  # beyond snd_nxt: must be ignored
        assert st.snd_nxt == done_nxt

    def test_duplicate_ack_harmless(self):
        sim, fab, a, b = make_direct_pair(GbnTransport)
        flow = send_flow(sim, a, b, 10_000)
        drain(sim)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        una = st.snd_una
        old = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                       kind=PacketKind.ACK, ack_psn=0)
        a._on_ack(qp, old)
        assert st.snd_una == una


class TestIrnEdges:
    def test_sack_below_cumulative_ignored(self):
        sim, fab, a, b = make_direct_pair(IrnTransport)
        flow = send_flow(sim, a, b, 20_000)
        drain(sim)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        stale = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                         kind=PacketKind.SACK, ack_psn=st.snd_una - 1,
                         sack_psn=0)
        a._on_sack(qp, stale)
        assert not st.rtx_queue

    def test_recovery_entry_snapshot(self):
        """recovery_high snapshots max_sent at entry; later sends do not
        extend the episode."""
        sim, fab, a, b = make_direct_pair(IrnTransport)
        flow = send_flow(sim, a, b, 100_000)
        sim.run(max_events=150)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        assert st.max_sent > 5
        sack = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                        kind=PacketKind.SACK, ack_psn=st.snd_una - 1,
                        sack_psn=min(st.snd_una + 3, st.max_sent))
        a._on_sack(qp, sack)
        assert st.in_recovery
        snapshot = st.recovery_high
        drain(sim)
        assert flow.completed
        assert not st.in_recovery
        assert st.recovery_high == snapshot

    def test_rtx_queue_skips_repaired_psns(self):
        sim, fab, a, b = make_direct_pair(IrnTransport)
        flow = send_flow(sim, a, b, 50_000)
        sim.run(max_events=300)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        base = st.snd_una
        # queue a retransmission, then mark it SACKed before the NIC pulls
        st.rtx_queue.append(base)
        st.rtx_marked.add(base)
        st.sacked.add(base)
        drain(sim)
        assert flow.completed
        # no duplicate delivery of the repaired PSN
        assert flow.stats.dup_pkts_received == 0


class TestDcpEdges:
    def test_zero_sized_message_rejected(self):
        sim, fab, a, b = make_direct_pair(DcpTransport)
        flow = send_flow(sim, a, b, 1)  # 1 byte is the minimum
        drain(sim)
        assert flow.completed

    def test_stale_ho_after_ack_is_discarded(self):
        cfg = TransportConfig(max_message_bytes=10_000)
        sim, fab, a, b = make_direct_pair(DcpTransport, cfg)
        flow = send_flow(sim, a, b, 30_000)
        drain(sim)
        assert flow.completed
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        # forge a late HO for an already-acked message
        from repro.net.packet import make_data_packet
        ho = make_data_packet(0, 1, flow_id=flow.flow_id, qpn=qp.peer_qpn,
                              src_qpn=qp.qpn, psn=0, msn=0, payload=1000,
                              mtu_payload=1000, msg_len_pkts=10,
                              msg_len_bytes=10_000, msg_offset_pkts=0,
                              dcp=True)
        ho.trim()
        ho.turn_around()
        before = a.stats.stale_ho
        a._on_ho(qp, ho)
        assert a.stats.stale_ho == before + 1
        assert st.retransq.host_len == 0  # nothing queued for retransmit

    def test_duplicate_emsn_ack_idempotent(self):
        sim, fab, a, b = make_direct_pair(DcpTransport)
        flow = send_flow(sim, a, b, 20_000)
        drain(sim)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        acked = st.acked_msn
        dup = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                       kind=PacketKind.ACK, emsn=acked, dcp=True)
        a._on_ack(qp, dup)
        assert st.acked_msn == acked
        assert qp.outstanding_bytes == 0

    def test_backoff_resets_on_progress(self):
        sim, fab, a, b = make_direct_pair(DcpTransport)
        flow = send_flow(sim, a, b, 20_000)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        st.backoff = 5
        drain(sim)
        assert flow.completed
        assert st.backoff == 0  # the completing ACK cleared it


class TestMalformedInput:
    def test_irn_survives_sack_for_unsent_psn(self):
        """A SACK naming a PSN beyond max_sent must be ignored, not crash."""
        sim, fab, a, b = make_direct_pair(IrnTransport)
        flow = send_flow(sim, a, b, 20_000)
        drain(sim)
        qp = list(a.qps.values())[0]
        st = a._send_state(qp)
        bogus = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                         kind=PacketKind.SACK, ack_psn=st.snd_una - 1,
                         sack_psn=st.max_sent + 50)
        a._on_sack(qp, bogus)  # must not raise
        assert not st.rtx_queue

    def test_packet_for_unknown_qpn_dropped(self):
        sim, fab, a, b = make_direct_pair(DcpTransport)
        flow = send_flow(sim, a, b, 5_000)
        from repro.net.packet import make_data_packet
        stray = make_data_packet(9, 1, flow_id=1, qpn=99999, src_qpn=1,
                                 psn=0, msn=0, payload=1000,
                                 mtu_payload=1000, msg_len_pkts=1,
                                 msg_len_bytes=1000, msg_offset_pkts=0,
                                 dcp=True)
        b.receive(stray)  # silently ignored (stale/destroyed QP)
        drain(sim)
        assert flow.completed


class _FixedGapCc(CongestionControl):
    """Unlimited window, a fixed pacing gap after every packet."""

    paces = True
    window_bytes = 1 << 30

    def __init__(self, gap_ns: int) -> None:
        self.gap_ns = gap_ns

    def available_window(self, outstanding_bytes: int) -> int:
        return self.window_bytes - outstanding_bytes

    def pacing_delay_ns(self, packet_bytes: int) -> int:
        return self.gap_ns


class TestNicWakeup:
    def test_later_pending_wakeup_does_not_swallow_an_earlier_one(self):
        """QP A is paced at 1 000 ns, QP B at 100 ns and posts at 200 ns:
        B's second packet leaves when B's gate opens (300 ns), not when
        A's longer gate would have woken the NIC (1 000 ns + one frame)."""
        sim, fab, a, b = make_direct_pair(GbnTransport)
        qa, _ = RnicTransport.connect(a, b, cc_a=_FixedGapCc(1_000))
        qb, _ = RnicTransport.connect(a, b, cc_a=_FixedGapCc(100))
        send_flow(sim, a, b, 5_000, qp=qa)
        send_flow(sim, a, b, 5_000, start_ns=200, qp=qb)
        pulls = {qa.qpn: [], qb.qpn: []}
        poll_tx = a.poll_tx

        def recording_poll():
            packet = poll_tx()
            if packet is not None:
                pulls[packet.src_qpn].append(sim.now)
            return packet

        a.poll_tx = recording_poll
        sim.run(until=1_500)
        assert pulls[qa.qpn][:2] == [0, 1_000]
        assert pulls[qb.qpn][:3] == [200, 300, 400]


class _CountingQueue(deque):
    """A send queue that counts every message the transport looks at."""

    visits = 0

    def __iter__(self):
        for msg in super().__iter__():
            self.visits += 1
            yield msg

    def __getitem__(self, index):
        self.visits += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("name", sorted(_transport_registry()))
class TestMessageCompletion:
    """Send-side completion is incremental: each cumulative ACK touches
    the messages it newly acknowledges, not every message ever posted."""

    def test_bounded_work_and_nothing_left_behind(self, name):
        cfg = TransportConfig(max_message_bytes=4_000)
        sim, fab, a, b = make_direct_pair(_transport_registry()[name], cfg)
        qp, _ = RnicTransport.connect(a, b)
        queue = qp.send_queue = _CountingQueue()
        acks = []
        send_control = b.nic.send_control

        def count(pkt):
            if pkt.kind in (PacketKind.ACK, PacketKind.SACK, PacketKind.NAK,
                            PacketKind.TCP_ACK):
                acks.append(pkt)
            send_control(pkt)

        b.nic.send_control = count
        # Two flows back to back on one (reused) QP, ten messages each.
        flows = [send_flow(sim, a, b, 40_000, qp=qp),
                 send_flow(sim, a, b, 40_000, start_ns=100_000, qp=qp)]
        drain(sim)
        visits = queue.visits
        assert all(f.completed and f.tx_complete_ns is not None
                   for f in flows)
        assert flows[0].tx_complete_ns < flows[1].tx_complete_ns
        assert qp.next_msn == 20
        # Quiesced: the completion bookkeeping holds no acknowledged message.
        assert not any(msg.acked for msg in queue)
        assert not qp.unacked_msgs
        assert visits <= qp.next_msn + len(acks)

    def test_interleaved_posting_completes_each_flow_at_its_last_message(
            self, name):
        """verbs-style posting: two flows alternate messages on one QP."""
        sim, fab, a, b = make_direct_pair(_transport_registry()[name])
        qp, _ = RnicTransport.connect(a, b)
        first, second = (Flow(0, 1, 8_000, 0), Flow(0, 1, 8_000, 0))
        for flow in (first, second):
            b.expect_flow(flow)

        def post():
            for flow in (first, second, first, second):
                a.post_message(qp, flow, 4_000)

        sim.schedule(0, post)
        drain(sim)
        assert first.completed and second.completed
        # first's last message is acknowledged one message before
        # second's; neither waits for the other's.
        assert first.tx_complete_ns < second.tx_complete_ns
        assert not qp.send_queue and not qp.unacked_msgs
