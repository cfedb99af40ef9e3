"""Unit tests for the switch: trimming, control queue, drops, ECN, WRR."""

import pytest

from repro.net.ecn import RedProfile
from repro.net.packet import (DcpTag, Packet, PacketKind, make_ack,
                              make_data_packet)
from repro.net.pfc import PfcConfig
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import CONTROL_CLASS, DATA_CLASS, Switch, SwitchConfig
from repro.sim import trace
from repro.sim.engine import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def make_switch(sim, **cfg_overrides):
    cfg = SwitchConfig(num_ports=2, rate_bits_per_ns=100.0,
                       buffer_bytes=1_000_000)
    for k, v in cfg_overrides.items():
        setattr(cfg, k, v)
    sw = Switch(sim, 0, cfg, EcmpLoadBalancer())
    return sw


def attach_sink(sim, sw, port):
    from repro.net.link import Link
    sink = Sink()
    link = Link(sim, sink, 0, prop_delay_ns=10)
    sw.attach(port, link, sink, 0)
    sw.add_route(dst=port, port_idx=port)
    return sink


def data_pkt(dst=1, dcp=True, psn=0):
    return make_data_packet(9, dst, flow_id=1, qpn=1, src_qpn=2, psn=psn,
                            msn=0, payload=1000, mtu_payload=1000,
                            msg_len_pkts=10, msg_len_bytes=10_000,
                            msg_offset_pkts=psn, dcp=dcp)


def test_forwarding():
    sim = Simulator()
    sw = make_switch(sim)
    sink = attach_sink(sim, sw, 1)
    sw.receive(data_pkt(), in_port=0)
    sim.run()
    assert len(sink.received) == 1
    assert sw.stats.forwarded == 1


def test_unknown_destination_raises():
    sim = Simulator()
    sw = make_switch(sim)
    with pytest.raises(KeyError):
        sw.receive(data_pkt(dst=77), in_port=0)


def test_trimming_over_threshold():
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True, trim_threshold_bytes=3000)
    sink = attach_sink(sim, sw, 1)
    # Fill the data queue beyond the threshold without letting it drain.
    for i in range(10):
        sw.receive(data_pkt(psn=i), in_port=0)
    assert sw.stats.trimmed > 0
    sim.run()
    kinds = {p.kind for p in sink.received}
    assert PacketKind.HO in kinds and PacketKind.DATA in kinds
    trimmed = [p for p in sink.received if p.kind is PacketKind.HO]
    assert all(p.size_bytes == 57 for p in trimmed)


def test_non_dcp_dropped_over_threshold():
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True, trim_threshold_bytes=3000)
    attach_sink(sim, sw, 1)
    for i in range(10):
        sw.receive(data_pkt(psn=i, dcp=False), in_port=0)
    assert sw.stats.dropped_congestion > 0
    assert sw.stats.trimmed == 0


def test_dcp_ack_dropped_over_threshold():
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True, trim_threshold_bytes=2500)
    attach_sink(sim, sw, 1)
    for i in range(5):
        sw.receive(data_pkt(psn=i), in_port=0)
    ack = make_ack(9, 1, flow_id=1, qpn=1, src_qpn=2, ack_psn=0, dcp=True)
    before = sw.stats.acks_dropped
    sw.receive(ack, in_port=0)
    assert sw.stats.acks_dropped == before + 1


def test_ho_goes_to_control_queue():
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True)
    attach_sink(sim, sw, 1)
    ho = data_pkt()
    ho.trim()
    sw.receive(ho, in_port=0)
    assert sw.stats.ho_enqueued == 1


def test_control_queue_overflow_counts_ho_drop():
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True, control_queue_bytes=100)
    attach_sink(sim, sw, 1)
    for _ in range(5):
        ho = data_pkt()
        ho.trim()
        sw.receive(ho, in_port=0)
    assert sw.stats.ho_dropped > 0


def test_forced_loss_drops_non_dcp():
    sim = Simulator()
    sw = make_switch(sim, loss_rate=1.0)
    attach_sink(sim, sw, 1)
    sw.receive(data_pkt(dcp=False), in_port=0)
    assert sw.stats.dropped_forced == 1


def test_forced_loss_trims_dcp_when_trimming():
    sim = Simulator()
    sw = make_switch(sim, loss_rate=1.0, enable_trimming=True)
    attach_sink(sim, sw, 1)
    sw.receive(data_pkt(dcp=True), in_port=0)
    assert sw.stats.trimmed == 1
    assert sw.stats.dropped_forced == 0


def test_shared_buffer_admission():
    sim = Simulator()
    sw = make_switch(sim, buffer_bytes=2500)
    attach_sink(sim, sw, 1)
    for i in range(5):
        sw.receive(data_pkt(psn=i), in_port=0)
    assert sw.stats.dropped_buffer > 0


def test_data_queue_capacity_drop():
    sim = Simulator()
    sw = make_switch(sim, data_queue_bytes=2200)
    attach_sink(sim, sw, 1)
    for i in range(5):
        sw.receive(data_pkt(psn=i), in_port=0)
    assert sw.stats.dropped_congestion > 0


def test_ecn_marks_when_congested():
    sim = Simulator()
    sw = make_switch(sim, red=RedProfile(kmin_bytes=0, kmax_bytes=1,
                                         pmax=1.0))
    sink = attach_sink(sim, sw, 1)
    # The first packet is pulled onto the wire immediately; subsequent
    # arrivals see a standing queue and must be marked (kmax = 1 byte).
    for i in range(6):
        sw.receive(data_pkt(psn=i), in_port=0)
    sim.run()
    assert any(p.ecn_ce for p in sink.received)
    assert sw.stats.ecn_marked >= 1


def test_buffer_released_after_forwarding():
    sim = Simulator()
    sw = make_switch(sim)
    attach_sink(sim, sw, 1)
    sw.receive(data_pkt(), in_port=0)
    assert sw.buffered_bytes > 0
    sim.run()
    assert sw.buffered_bytes == 0


def test_wrr_control_priority_under_contention():
    """HO packets must drain ahead of their fair share under backlog."""
    sim = Simulator()
    sw = make_switch(sim, enable_trimming=True, wrr_weight=4.0,
                     trim_threshold_bytes=10_000_000)
    sink = attach_sink(sim, sw, 1)
    # enqueue 20 data and 20 HO packets while the port is busy
    for i in range(20):
        sw.receive(data_pkt(psn=i), in_port=0)
        ho = data_pkt(psn=100 + i)
        ho.trim()
        sw.receive(ho, in_port=0)
    sim.run()
    arrivals = [p.kind for p in sink.received]
    # among the first 10 arrivals HO should dominate (weight 4:1)
    head = arrivals[:10]
    assert head.count(PacketKind.HO) >= 6


# ------------------------------------------------ one forwarding pipeline
class ScriptedRng:
    """Stands in for the forced-loss RNG: counts draws, loses on cue."""

    def __init__(self, lose_on=()):
        self.draws = 0
        self.lose_on = set(lose_on)

    def random(self):
        self.draws += 1
        return 0.0 if self.draws in self.lose_on else 0.99


def _scripted_arrivals():
    """One burst: DCP data, non-DCP data, DCP ACKs and HO packets, long
    enough to push every variant below past its trim / ECN / PFC /
    overflow thresholds while the egress port is still busy with the
    first packet."""
    arrivals = []
    for i in range(24):
        if i % 6 == 4:
            pkt = make_ack(9, 1, flow_id=1, qpn=1, src_qpn=2, ack_psn=i,
                           dcp=True)
        elif i % 6 == 5:
            pkt = data_pkt(psn=i)
            pkt.trim()
        else:
            pkt = data_pkt(psn=i, dcp=(i % 3 != 2))
        arrivals.append(pkt)
    return arrivals


_VARIANTS = {
    "dcp": dict(enable_trimming=True, trim_threshold_bytes=3000,
                control_queue_bytes=150,
                red=RedProfile(kmin_bytes=1000, kmax_bytes=2000, pmax=1.0)),
    "lossless": dict(pfc=PfcConfig(xoff_bytes=4000, xon_bytes=2000),
                     red=RedProfile(kmin_bytes=1000, kmax_bytes=2000,
                                    pmax=1.0)),
    # Sized so the queue cap trips first and the shared buffer later,
    # once header-only packets have piled into the control queue.
    "lossy": dict(data_queue_bytes=4400, buffer_bytes=6560),
}


def _decisions(loss_rate, variant):
    """Everything observable about a scripted run: the switch's trace
    (trim / drop / ecn / pfc / ctrlq records, in emission order), its
    counters, and what left each side, in order."""
    sim = Simulator()
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        sw = make_switch(sim, loss_rate=loss_rate, **_VARIANTS[variant])
        rng = ScriptedRng()
        sw._loss_rng = rng
        sink = attach_sink(sim, sw, 1)
        upstream = attach_sink(sim, sw, 0)      # receives PAUSE/RESUME
        payload_pkts = 0
        for _ in range(2):
            for pkt in _scripted_arrivals():
                payload_pkts += pkt.kind is PacketKind.DATA
                sw.receive(pkt, in_port=0)
            sim.run()
    finally:
        trace.install(None)
    log = [(r.time_ns, r.category, sorted(r.detail.items()))
           for r in tracer.records]
    out = [(p.kind, p.psn, p.ecn_ce) for p in sink.received]
    back = [p.kind for p in upstream.received]
    return log, sw.stats.as_dict(), out, back, rng.draws, payload_pkts


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_loss_configured_switch_decides_like_a_loss_free_one(variant):
    """Forced loss is one extra branch in front of the same pipeline:
    when the draw never hits, trim / drop / ECN / PFC decisions, their
    order and the departures are those of a loss-free switch."""
    free = _decisions(0.0, variant)
    lossy = _decisions(0.25, variant)
    assert lossy[:4] == free[:4]
    log, stats, out, back, draws, payload_pkts = lossy
    # The scenario must actually exercise the variant's machinery.
    categories = {category for _, category, _ in log}
    if variant == "dcp":
        assert {"trim", "drop", "ecn", "ctrlq"} <= categories
        assert stats["ho_dropped"] > 0 and stats["acks_dropped"] > 0
    elif variant == "lossless":
        assert {"pfc", "ecn"} <= categories
        assert PacketKind.PAUSE in back and PacketKind.RESUME in back
    else:
        assert stats["dropped_congestion"] > 0 and stats["dropped_buffer"] > 0
    # One draw per payload packet whatever the queue state — and none
    # at all on the loss-free switch.
    assert draws == payload_pkts > 0
    assert free[4] == 0


def test_forced_loss_is_drawn_before_the_trim_decision():
    """A payload packet that loses the draw is a *forced* loss even when
    the queue it was headed for is past the trim threshold; control
    packets never draw."""
    sim = Simulator()
    sw = make_switch(sim, loss_rate=0.25, enable_trimming=True,
                     trim_threshold_bytes=1500)
    attach_sink(sim, sw, 1)
    rng = sw._loss_rng = ScriptedRng(lose_on={5, 6})
    for i in range(4):              # draws 1-4, all kept: congest the queue
        sw.receive(data_pkt(psn=i), in_port=0)
    assert sw.ports[1].queues[DATA_CLASS].bytes > 1500
    assert sw.stats.trimmed == 1
    sw.receive(data_pkt(psn=10, dcp=False), in_port=0)      # draw 5: lost
    assert sw.stats.dropped_forced == 1
    assert sw.stats.dropped_congestion == 0
    sw.receive(data_pkt(psn=11), in_port=0)                 # draw 6: lost
    assert sw.stats.trimmed == 2 and sw.stats.dropped_forced == 1
    sw.receive(data_pkt(psn=12, dcp=False), in_port=0)      # draw 7: kept,
    assert sw.stats.dropped_congestion == 1                 # then congested
    ack = make_ack(9, 1, flow_id=1, qpn=1, src_qpn=2, ack_psn=0, dcp=True)
    sw.receive(ack, in_port=0)
    ho = data_pkt(psn=13)
    ho.trim()
    sw.receive(ho, in_port=0)
    assert rng.draws == 7
