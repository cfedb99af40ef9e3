"""Behavioral tests for the SDR selective-repeat transport.

Covers the three mechanisms that make SDR a distinct point on the
reliability frontier — the ack vector, the bounded reorder buffer, and
per-hole timers — plus the §4.5 coarse fallback and Swift integration.
"""

from __future__ import annotations

from repro.experiments.common import build_network
from repro.net.packet import PacketKind, make_data_packet
from repro.rnic.base import Flow, RnicTransport, TransportConfig
from repro.rnic.sdr import SdrTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_clean_transfer_no_recovery():
    sim, fab, a, b = make_direct_pair(SdrTransport)
    flow = send_flow(sim, a, b, 100_000)
    drain(sim)
    assert flow.completed
    assert flow.stats.retx_pkts_sent == 0
    assert flow.stats.timeouts == 0
    assert a.stats.coarse_timeouts == 0


def test_loss_repaired_by_holes_not_rtos():
    """The headline property: under plain loss SDR retransmits exactly
    its holes — no RTO, no coarse fallback, no window blast."""
    net = build_network(transport="sdr", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.05,
                        lb="ecmp", seed=61)
    flow = net.open_flow(0, 2, 300_000, 0)
    net.run_until_flows_done(max_events=60_000_000)
    assert flow.completed
    assert flow.rx_bytes == 300_000
    assert flow.stats.retx_pkts_sent > 0
    assert flow.stats.timeouts == 0
    assert sum(t.stats.coarse_timeouts for t in net.transports) == 0


# ----------------------------------------------------------- ack vector
def _recv_harness(config: TransportConfig | None = None,
                  transport_cls=SdrTransport):
    """B-side receive harness: crafted data in, captured acks out."""
    sim, fab, a, b = make_direct_pair(transport_cls, config=config)
    qp_a, qp_b = RnicTransport.connect(a, b)
    flow = Flow(0, 1, 10_000, 0)
    b.expect_flow(flow)
    acks = []
    b.nic.send_control = acks.append
    mtu = b.config.mtu_payload
    # The software TCP stack names its (post-stack-delay) handler apart.
    on_data = getattr(b, "_on_tcp_data", b._on_data)

    def push(psn: int) -> None:
        on_data(qp_b, make_data_packet(
            0, 1, flow_id=flow.flow_id, qpn=qp_b.qpn, src_qpn=qp_a.qpn,
            psn=psn, msn=0, payload=mtu, mtu_payload=mtu, msg_len_pkts=10,
            msg_len_bytes=10 * mtu, msg_offset_pkts=psn, dcp=False,
            entropy=0))

    return sim, b, flow, acks, push


def test_ack_vector_reports_every_buffered_hole():
    sim, b, flow, acks, push = _recv_harness()
    mtu = b.config.mtu_payload

    push(1)                                   # hole at 0
    assert acks[-1].kind == PacketKind.SACK
    assert acks[-1].ack_psn == -1             # nothing cumulative yet
    assert acks[-1].sack_bitmap == 0b10       # bit i = PSN ack+1+i

    push(3)                                   # second hole at 2
    assert acks[-1].sack_bitmap == 0b1010     # one ack, whole window view

    push(0)                                   # fills hole 0: ePSN -> 2
    assert acks[-1].ack_psn == 1
    assert acks[-1].sack_bitmap == 0b10       # PSN 3 rebased to bit 1
    assert flow.rx_bytes == 3 * mtu           # OOO data was delivered

    push(2)                                   # fills the last hole
    assert acks[-1].kind == PacketKind.ACK
    assert acks[-1].ack_psn == 3
    assert acks[-1].sack_bitmap == 0
    assert flow.rx_bytes == 4 * mtu


def test_duplicates_acked_but_not_redelivered():
    sim, b, flow, acks, push = _recv_harness()
    mtu = b.config.mtu_payload
    push(0)
    push(1)
    push(1)                                   # duplicate
    assert flow.rx_bytes == 2 * mtu           # exactly-once
    assert flow.stats.dup_pkts_received == 1
    assert acks[-1].ack_psn == 1              # but still acked (sender view)


def test_reorder_bound_drops_and_never_acks():
    cfg = TransportConfig(sdr_reorder_window_pkts=4)
    sim, b, flow, acks, push = _recv_harness(cfg)

    push(4)                                   # epsn=0, bound=4: too far
    assert b.stats.ooo_drops == 1
    assert flow.rx_bytes == 0                 # not delivered...
    assert acks[-1].sack_bitmap == 0          # ...and not acknowledged

    push(3)                                   # inside the bound: buffered
    assert b.stats.ooo_drops == 1
    assert acks[-1].sack_bitmap == 0b1000
    assert flow.rx_bytes == b.config.mtu_payload


def test_reorder_state_never_exceeds_bound():
    cfg = TransportConfig(sdr_reorder_window_pkts=4)
    sim, b, flow, acks, push = _recv_harness(cfg)
    for psn in (1, 2, 3, 4, 5, 6):            # 4..6 are beyond the bound
        push(psn)
        st = b._rcv[next(iter(b._rcv))]
        assert len(st.ooo) <= 4
    assert b.stats.ooo_drops == 3


# ------------------------------------------------------- coarse fallback
def test_coarse_fires_on_dead_path_then_recovers():
    """Holes *and* their repairs die on a downed cable: only the §4.5
    coarse fallback can carry the flow across, and it must be counted
    in ``coarse_timeouts`` exactly like DCP's."""
    net = build_network(
        transport="sdr", topology="direct", num_hosts=2, link_rate=10.0,
        seed=62, transport_overrides={"coarse_timeout_ns": 200_000,
                                      "rto_low_ns": 100_000})
    flow = net.open_flow(0, 1, 200_000, 0)
    link = net.hosts[0].nic.link              # the data direction

    def down() -> None:
        link.up = False

    def up() -> None:
        link.up = True

    net.sim.schedule(50_000, down)
    net.sim.schedule(1_050_000, up)
    net.run_until_flows_done(max_events=40_000_000)
    assert flow.completed
    assert flow.rx_bytes == 200_000
    coarse = sum(t.stats.coarse_timeouts for t in net.transports)
    assert coarse >= 1                        # fallback did the crossing
    assert flow.stats.timeouts >= coarse      # superset accounting holds


# ---------------------------------------------------------------- swift
def test_swift_cc_rides_on_sdr():
    net = build_network(transport="sdr", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, loss_rate=0.01,
                        lb="ecmp", cc="swift", seed=63)
    flow = net.open_flow(0, 2, 200_000, 0)
    net.run_until_flows_done(max_events=60_000_000)
    assert flow.completed
    ccs = [qp.cc for t in net.transports for qp in t.qps.values()]
    assert any(getattr(cc, "rtt_samples", 0) > 0 for cc in ccs)
