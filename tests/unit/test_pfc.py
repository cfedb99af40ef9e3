"""Unit tests for the PFC controller and end-to-end pause behaviour."""

import pytest

from repro.net.packet import Packet, PacketKind, make_data_packet
from repro.net.pfc import PfcConfig, PfcController, make_pause, make_resume
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
    assert make_pause(3).kind is PacketKind.PAUSE
    assert make_pause(3).pause_priority == 3
    assert make_resume(1).kind is PacketKind.RESUME


def test_per_port_independence():
    sim = Simulator()
    frames = []
    pfc = PfcController(sim, 2, PfcConfig(xoff_bytes=1000, xon_bytes=500),
                        lambda port, f: frames.append(port))
    pfc.charge(0, _pkt(1500))
    assert frames == [0]
    pfc.charge(1, _pkt(400))
    assert frames == [0]  # port 1 below xoff


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
