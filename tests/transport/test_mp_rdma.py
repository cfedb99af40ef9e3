"""Behavioral tests for the MP-RDMA multipath transport."""

from repro.experiments.common import build_network
from repro.rnic.mp_rdma import MpRdmaTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(MpRdmaTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.rx_bytes == 100_000


def test_packets_spread_over_virtual_paths():
    """Per-packet entropy cycling -> ECMP spreads one QP across paths."""
    net = build_network(transport="mp_rdma", topology="testbed", num_hosts=4,
                        cross_links=4, link_rate=10.0, lb="ecmp", seed=31)
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    cross_ports = sw1.ports[2:]  # 2 hosts + 4 cross links
    used = [p for p in cross_ports if p.link.stats.delivered_packets > 50]
    assert len(used) >= 3  # a GBN flow would stick to exactly one


def test_adaptive_window_reacts_to_ecn():
    """Marked ACKs shrink the window; clean ACKs grow it back."""
    sim, fab, a, b = make_direct_pair(MpRdmaTransport)
    flow = send_flow(sim, a, b, 30_000)
    drain(sim)
    qp = list(a.qps.values())[0]
    st = a._send_state(qp)
    grown = st.cwnd_pkts
    from repro.net.packet import PacketKind, make_ack
    ack = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                   kind=PacketKind.ACK, ack_psn=29)
    ack.ecn_ce = True
    a._on_ack(qp, ack)
    assert st.cwnd_pkts < grown


def test_bounded_ooo_window_drops_and_naks():
    """Packets beyond the OOO bitmap are dropped with a NAK (the §6.2
    'fails to control the OOO degree' behaviour)."""
    from repro.rnic.base import TransportConfig
    sim, fab, a, b = make_direct_pair(MpRdmaTransport)
    b.ooo_window = 4
    qp_a = list(a.qps.values()) or None
    flow = send_flow(sim, a, b, 50_000)
    qp = list(a.qps.values())[0]
    peer_qp = list(b.qps.values())[0]
    # hand-deliver a packet far beyond the OOO window
    from repro.net.packet import make_data_packet
    far = make_data_packet(0, 1, flow_id=flow.flow_id, qpn=peer_qp.qpn,
                           src_qpn=qp.qpn, psn=40, msn=0, payload=1000,
                           mtu_payload=1000, msg_len_pkts=50,
                           msg_len_bytes=50_000, dcp=False)
    b._on_data(peer_qp, far)
    assert b.ooo_drops == 1
    drain(sim)
    assert flow.completed


def test_lossless_fabric_no_retx():
    net = build_network(transport="mp_rdma", topology="clos", num_hosts=8,
                        num_leaves=2, num_spines=2, link_rate=10.0,
                        lb="ecmp", seed=33)
    assert all(sw.pfc is not None for sw in net.fabric.switches)
    flows = [net.open_flow(i, 7 - i, 100_000, 0) for i in range(3)]
    net.run_until_flows_done(max_events=30_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("dropped_congestion") == 0


def test_nak_triggers_go_back_n():
    """MP-RDMA recovery is GBN: a NAK rewinds the send pointer."""
    sim, fab, a, b = make_direct_pair(MpRdmaTransport)
    flow = send_flow(sim, a, b, 50_000)
    sim.run(max_events=200)
    qp = list(a.qps.values())[0]
    st = a._send_state(qp)
    sent_before = st.snd_nxt
    assert sent_before > 3
    from repro.net.packet import PacketKind, make_ack
    a.nic.pause()  # keep the rewind observable (no instant resend)
    rewind_to = max(st.snd_una, 2)
    nak = make_ack(1, 0, flow_id=-1, qpn=qp.qpn, src_qpn=qp.peer_qpn,
                   kind=PacketKind.NAK, ack_psn=rewind_to)
    a._on_nak(qp, nak)
    assert st.snd_nxt == rewind_to
    assert st.snd_nxt <= sent_before
    a.nic.resume()
    drain(sim)
    assert flow.completed
