"""Behavioral tests for the DCP transport — the paper's contribution."""

import pytest

from repro.core.dcp import DcpTransport
from repro.experiments.common import build_network
from repro.net.packet import DcpTag, PacketKind
from repro.rnic.base import RnicTransport, TransportConfig
from tests.conftest import drain, make_direct_pair, send_flow


def _lossy_net(loss=0.02, **over):
    defaults = dict(transport="dcp", topology="testbed", num_hosts=4,
                    cross_links=2, link_rate=10.0, loss_rate=loss, lb="ar",
                    seed=23)
    defaults.update(over)
    return build_network(**defaults)


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(DcpTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0
    assert flow.stats.timeouts == 0


def test_data_packets_are_dcp_tagged():
    sim, fab, a, b = make_direct_pair(DcpTransport)
    flow = send_flow(sim, a, b, 5_000)
    sim.step()  # execute the scheduled post_flow
    pkt = a.poll_tx()
    assert pkt.dcp_tag == DcpTag.DCP_DATA
    assert pkt.msn == 0
    assert pkt.sretry_no == 0
    assert pkt.msg_len_pkts == 5


def test_trims_recovered_precisely():
    """Every trim produces exactly one HO round trip and one retransmit."""
    net = _lossy_net(loss=0.02)
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    trims = net.fabric.switch_stats_sum("trimmed")
    assert trims > 0
    sender = net.transports[0]
    receiver = net.transports[2]
    assert receiver.stats.ho_turned == trims
    # HO travel is lossless here, so the sender saw them all and
    # retransmitted precisely once per trim (minus re-trimmed ones).
    assert sender.stats.ho_received == flow.stats.trims_seen == trims
    assert flow.stats.retx_pkts_sent == trims
    assert flow.stats.timeouts == 0
    assert flow.stats.dup_pkts_received == 0


def test_exactly_once_delivery():
    """The §4.5 'exactly once' property under loss + reordering."""
    # half-rate cross links: AR spreads the flow over both, reordering it
    net = _lossy_net(loss=0.05, lb="ar", cross_port_rates={0: 5.0, 1: 5.0})
    flow = net.open_flow(0, 2, 400_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    assert all(sw1.ports[2 + c].link.stats.delivered_packets > 0
               for c in range(2))
    assert flow.rx_bytes == 400_000
    assert flow.stats.dup_pkts_received == 0


def test_order_tolerant_reception_no_spurious_retx():
    """R2: packet-level LB reordering alone causes zero retransmissions."""
    # AR spreads over cross links slower than the NIC, and the
    # quarter-rate one reorders (the IRN spurious-retransmission cell).
    net = _lossy_net(loss=0.0, lb="ar", cross_links=4,
                     cross_port_rates={0: 5.0, 1: 5.0, 2: 5.0, 3: 1.25})
    flow = net.open_flow(0, 2, 500_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    sw1 = net.fabric.switches[0]
    assert sw1.ports[2 + 3].link.stats.delivered_packets > 0
    assert net.fabric.switch_stats_sum("trimmed") == 0
    assert flow.stats.retx_pkts_sent == 0


def test_rto_free_recovery():
    """R3: even heavy loss is recovered without a single RTO."""
    net = _lossy_net(loss=0.05)
    flows = [net.open_flow(0, 2, 200_000, 0),
             net.open_flow(1, 3, 200_000, 0)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)
    assert sum(f.stats.timeouts for f in flows) == 0


def test_multi_message_emsn_acks():
    """Flows split into messages; eMSN ACKs advance message by message."""
    cfg = TransportConfig(max_message_bytes=10_000)
    sim, fab, a, b = make_direct_pair(DcpTransport, cfg)
    flow = send_flow(sim, a, b, 95_000)
    drain(sim)
    assert flow.completed
    qp = list(a.qps.values())[0]
    assert qp.next_msn == 10  # 9 x 10 KB + 1 x 5 KB
    st = a._send_state(qp)
    assert st.acked_msn == 10


def test_out_of_order_message_completion():
    """A later message completing first must wait for eMSN ordering."""
    net = _lossy_net(loss=0.03,
                     transport_overrides={"max_message_bytes": 20_000})
    flow = net.open_flow(0, 2, 100_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    tracker = net.transports[2]._rcv[
        list(net.transports[2].qps.values())[0].qpn].tracker
    assert tracker.emsn == 5


def test_coarse_timeout_covers_broken_control_plane():
    """§4.5 fallback: kill HO delivery entirely; the coarse timer must
    still complete the flow via sRetryNo rounds."""
    cfg = TransportConfig(coarse_timeout_ns=200_000)
    sim, fab, a, b = make_direct_pair(DcpTransport, cfg)

    # Sabotage: receiver drops HO packets instead of turning them around.
    original = b._on_ho

    def black_hole(qp, packet):
        if not packet.ho_returned:
            return  # swallow the HO: control plane violated
        original(qp, packet)

    b._on_ho = black_hole

    # Trim every 10th packet by injecting trims at the "wire": simplest
    # is a direct link, so instead trim manually via a wrapper on a.nic.
    flow = send_flow(sim, a, b, 50_000)
    nic_link = a.nic.link
    count = [0]
    orig_deliver = nic_link.deliver

    def lossy_deliver(packet):
        if packet.kind == PacketKind.DATA:
            count[0] += 1
            if count[0] % 10 == 0 and count[0] <= 50:
                packet.trim()  # switch would trim; HO then black-holed
        orig_deliver(packet)

    nic_link.deliver = lossy_deliver
    drain(sim)
    assert flow.completed
    assert flow.stats.timeouts > 0  # recovered by the fallback, not HO


def test_ho_turnaround_swaps_and_returns():
    net = _lossy_net(loss=0.05)
    flow = net.open_flow(0, 2, 100_000, 0)
    net.run_until_flows_done(max_events=30_000_000)
    assert flow.completed
    assert net.transports[2].stats.ho_turned > 0
    assert (net.transports[0].stats.ho_received
            == net.transports[2].stats.ho_turned)


def test_retransq_batching_under_burst_loss():
    """A burst of trims is fetched in batches of <=16 per PCIe RTT."""
    net = _lossy_net(loss=0.10)
    flow = net.open_flow(0, 2, 300_000, 0)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    tr = net.transports[0]
    st = tr._snd[list(tr.qps.values())[0].qpn]
    assert st.retransq.entries_written == tr.stats.ho_received
    assert st.retransq.fetches >= 1
    # batching: strictly fewer fetches than entries whenever bursts occur
    if st.retransq.entries_written > 16:
        assert st.retransq.fetches < st.retransq.entries_written


def test_dcp_connects_many_flows():
    net = _lossy_net(loss=0.01)
    flows = [net.open_flow(i % 2, 2 + (i % 2), 50_000, i * 10_000)
             for i in range(10)]
    net.run_until_flows_done(max_events=40_000_000)
    assert all(f.completed for f in flows)


def test_ack_loss_tolerated():
    """DCP ACKs are droppable (tag 01); eMSN is cumulative so a later
    ACK or the coarse timer repairs the sender's view."""
    cfg = TransportConfig(coarse_timeout_ns=300_000, max_message_bytes=20_000)
    sim, fab, a, b = make_direct_pair(DcpTransport, cfg)
    flow = send_flow(sim, a, b, 100_000)
    # drop the first two ACKs on b's NIC
    dropped = [0]
    orig = b.nic.send_control

    def drop_some_acks(packet):
        if packet.kind == PacketKind.ACK and dropped[0] < 2:
            dropped[0] += 1
            return
        orig(packet)

    b.nic.send_control = drop_some_acks
    drain(sim)
    assert flow.completed
    assert dropped[0] == 2
    st = a._send_state(list(a.qps.values())[0])
    assert st.acked_msn == 5


def test_window_gates_retransmission_rate():
    """Challenge #2 of §4.3: the CC window regulates retransmissions."""
    from repro.cc.base import StaticWindowCc
    net = _lossy_net(loss=0.05, cc="window")
    flow = net.open_flow(0, 2, 200_000, 0)
    qp = net._pair_qps.get((0, 2))
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.stats.timeouts == 0
