"""Unit tests for the PFC controller and end-to-end pause behaviour."""

import pytest

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind, make_data_packet
from repro.net.pfc import PfcConfig, PfcController, make_pause, make_resume
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import DATA_CLASS, Switch, SwitchConfig
from repro.rnic.base import Host, HostNic, TransportConfig
from repro.rnic.gbn import GbnTransport
from repro.sim.engine import Simulator


def _pkt(size=1000):
    return Packet(src=0, dst=1, kind=PacketKind.DATA, size_bytes=size)


def test_config_validation():
    with pytest.raises(ValueError):
        PfcConfig(xoff_bytes=100, xon_bytes=200)
    with pytest.raises(ValueError):
        PfcConfig(xoff_bytes=100, xon_bytes=-1)


def test_pause_sent_on_xoff():
    sim = Simulator()
    frames = []
    pfc = PfcController(sim, 2, PfcConfig(xoff_bytes=2000, xon_bytes=1000),
                        lambda port, f: frames.append((port, f.kind)))
    pfc.charge(0, _pkt(1500))
    assert frames == []
    pfc.charge(0, _pkt(1500))
    assert frames == [(0, PacketKind.PAUSE)]


def test_resume_sent_on_xon():
    sim = Simulator()
    frames = []
    pfc = PfcController(sim, 2, PfcConfig(xoff_bytes=2000, xon_bytes=1000),
                        lambda port, f: frames.append((port, f.kind)))
    pkts = [_pkt(1500), _pkt(1500)]
    for p in pkts:
        pfc.charge(0, p)
    for p in pkts:
        pfc.release(0, p)
    assert frames == [(0, PacketKind.PAUSE), (0, PacketKind.RESUME)]
    assert pfc.ingress_bytes[0] == 0


def test_no_duplicate_pause():
    sim = Simulator()
    frames = []
    pfc = PfcController(sim, 1, PfcConfig(xoff_bytes=100, xon_bytes=50),
                        lambda port, f: frames.append(f.kind))
    for _ in range(5):
        pfc.charge(0, _pkt(200))
    assert frames.count(PacketKind.PAUSE) == 1


def test_local_traffic_not_charged():
    sim = Simulator()
    pfc = PfcController(sim, 1, PfcConfig(xoff_bytes=100, xon_bytes=50),
                        lambda port, f: None)
    pfc.charge(-1, _pkt(1_000_000))  # host-generated, in_port = -1
    assert pfc.ingress_bytes == [0]


def test_frame_builders():
    assert make_pause().kind == PacketKind.PAUSE
    assert make_resume().kind == PacketKind.RESUME


def test_per_port_independence():
    sim = Simulator()
    frames = []
    pfc = PfcController(sim, 2, PfcConfig(xoff_bytes=1000, xon_bytes=500),
                        lambda port, f: frames.append(port))
    pfc.charge(0, _pkt(1500))
    assert frames == [0]
    pfc.charge(1, _pkt(400))
    assert frames == [0]  # port 1 below xoff


def _pfc_switch(sim, name):
    return Switch(sim, 0, SwitchConfig(
        num_ports=3, rate_bits_per_ns=100.0, buffer_bytes=1_000_000,
        pfc=PfcConfig(xoff_bytes=2000, xon_bytes=1000)),
        EcmpLoadBalancer(), name=name)


def _frame(make, port):
    frame = make()
    frame.ingress_hint = port
    return frame


def test_pause_frame_pauses_the_port_it_arrived_on():
    """A PAUSE on ``pfc_frame`` stops the data class of the port named by
    its ingress hint and nothing else: no route, buffer or counter of
    the forwarding pipeline moves, and a RESUME undoes it."""
    sim = Simulator()
    sw = _pfc_switch(sim, "sw")
    sw.routing_table[7] = (1,)
    routes = dict(sw.routing_table)
    stats = sw.stats.as_dict()
    sw.pfc_frame(_frame(make_pause, 2))
    assert [p.paused_classes for p in sw.ports] == [set(), set(), {DATA_CLASS}]
    sw.pfc_frame(_frame(make_resume, 2))
    assert [p.paused_classes for p in sw.ports] == [set(), set(), set()]
    assert sw.routing_table == routes
    assert sw.buffered_bytes == 0
    assert sw.pfc.ingress_bytes == [0, 0, 0]
    assert sw.stats.as_dict() == stats
    assert len(sim._heap) == 0


def test_pfc_frame_reaches_the_neighbours_port_after_propagation():
    """XOFF at a switch sends the frame to the neighbour behind the
    congested ingress port: one event, one link delay later, on the
    neighbour's port facing back, bypassing the link's counters."""
    sim = Simulator()
    a, b = _pfc_switch(sim, "a"), _pfc_switch(sim, "b")
    a_to_b = Link(sim, b, 1, prop_delay_ns=500, name="a->b")
    a.attach(2, a_to_b, b, 1)
    b.attach(1, Link(sim, a, 2, prop_delay_ns=500, name="b->a"), a, 2)
    a.pfc.charge(2, _pkt(3000))
    sim.run()
    assert (sim.now, sim.events_processed) == (500, 1)
    assert [p.paused_classes for p in b.ports] == [set(), {DATA_CLASS}, set()]
    assert not any(p.paused_classes for p in a.ports)
    assert a_to_b.stats.delivered_packets == 0


def test_pfc_frame_pauses_a_host_nic():
    sim = Simulator()
    host = Host(sim, 0, HostNic(sim, 100.0, name="nic0"),
                GbnTransport(sim, 0, TransportConfig()))
    host.pfc_frame(_frame(make_pause, 0))
    assert host.nic.paused
    host.pfc_frame(_frame(make_resume, 0))
    assert not host.nic.paused


def test_end_to_end_lossless_under_pfc():
    """A GBN pair across a tiny-buffer PFC switch must lose nothing."""
    from repro.experiments.common import build_network
    net = build_network(transport="gbn", topology="testbed", num_hosts=4,
                        cross_links=1, link_rate=10.0, lb="ecmp", seed=5,
                        buffer_bytes=120_000, pfc_headroom_frac=0.5,
                        window_bytes=80_000)
    assert all(sw.pfc is not None for sw in net.fabric.switches)
    flows = [net.open_flow(0, 2, 400_000, 0), net.open_flow(1, 3, 400_000, 0)]
    net.run_until_flows_done(max_events=10_000_000)
    assert all(f.completed for f in flows)
    assert net.fabric.switch_stats_sum("dropped_congestion") == 0
    assert net.fabric.switch_stats_sum("dropped_buffer") == 0
    # the incast on the single cross link must actually have paused
    assert any(sw.pfc.stats.pause_frames > 0 for sw in net.fabric.switches)
    assert all(f.stats.retx_pkts_sent == 0 for f in flows)
