"""Behavioral tests for the software TCP comparison stack."""

from repro.analysis.fct import goodput_gbps
from repro.tcpstack.tcp import TcpTransport
from tests.conftest import drain, make_direct_pair, send_flow


def test_basic_transfer():
    sim, fab, a, b = make_direct_pair(TcpTransport)
    flow = send_flow(sim, a, b, 200_000)
    drain(sim)
    assert flow.completed
    assert flow.rx_bytes == 200_000


def test_host_overhead_caps_throughput():
    """The software stack cannot reach line rate (Fig 8's point)."""
    sim, fab, a, b = make_direct_pair(TcpTransport, rate=100.0)
    flow = send_flow(sim, a, b, 2_000_000)
    drain(sim)
    assert flow.completed
    # 450 ns/packet CPU floor => < ~18 Gbps for 1 KB segments
    assert goodput_gbps(flow) < 25.0


def test_stack_latency_dominates_small_messages():
    sim, fab, a, b = make_direct_pair(TcpTransport, rate=100.0,
                                      prop_delay_ns=500)
    flow = send_flow(sim, a, b, 64)
    drain(sim)
    assert flow.completed
    assert flow.fct_ns() > 8_000  # >> the 0.5 us RDMA latency


def test_slow_start_growth():
    sim, fab, a, b = make_direct_pair(TcpTransport)
    flow = send_flow(sim, a, b, 500_000)
    drain(sim)
    st = a._send_state(list(a.qps.values())[0])
    assert st.cwnd > 10.0  # grew beyond IW10


def test_fast_retransmit_on_triple_dupack():
    sim, fab, a, b = make_direct_pair(TcpTransport)
    flow = send_flow(sim, a, b, 100_000)
    link = a.nic.link
    orig = link.deliver
    state = {"dropped": False}

    def drop_one(packet):
        from repro.net.packet import PacketKind
        if (packet.kind == PacketKind.TCP_DATA and packet.psn == 20
                and not state["dropped"]):
            state["dropped"] = True
            return
        orig(packet)

    link.deliver = drop_one
    drain(sim)
    assert flow.completed
    assert state["dropped"]
    assert flow.stats.retx_pkts_sent >= 1
    assert flow.stats.timeouts == 0  # fast retransmit, not RTO


def test_rto_fallback():
    sim, fab, a, b = make_direct_pair(TcpTransport)
    flow = send_flow(sim, a, b, 3_000)
    link = a.nic.link
    orig = link.deliver
    state = {"dropped": False}

    def drop_tail(packet):
        from repro.net.packet import PacketKind
        if (packet.kind == PacketKind.TCP_DATA and packet.psn == 2
                and not state["dropped"]):
            state["dropped"] = True
            return
        orig(packet)

    link.deliver = drop_tail
    drain(sim)
    assert flow.completed
    assert flow.stats.timeouts >= 1  # tail loss with no dupacks -> RTO
