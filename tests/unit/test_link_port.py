"""Unit tests for links and egress ports."""

import random
import zlib

from repro.net.failures import FailureInjector
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet):
        self.received.append((packet, packet.ingress_hint))


def _pkt(size=1000):
    return Packet(src=0, dst=1, kind=PacketKind.DATA, size_bytes=size)


class TestLink:
    def test_propagation_delay(self):
        sim = Simulator()
        sink = Sink()
        link = Link(sim, sink, dst_port=3, prop_delay_ns=700)
        link.deliver(_pkt())
        sim.run()
        assert sim.now == 700
        assert sink.received[0][1] == 3

    def test_counts_and_hops(self):
        sim = Simulator()
        sink = Sink()
        link = Link(sim, sink, 0, 10)
        p = _pkt(500)
        link.deliver(p)
        sim.run()
        assert link.stats.delivered_packets == 1
        assert link.stats.delivered_bytes == 500

    def test_down_link_discards(self):
        sim = Simulator()
        sink = Sink()
        link = Link(sim, sink, 0, 10)
        link.up = False
        link.deliver(_pkt())
        sim.run()
        assert sink.received == []


    def test_loss_rng_built_on_first_draw_replays_a_lossy_link(self):
        """A link built clean and raised mid-run (as chaos ``loss_burst``
        does) draws the stream a link built lossy draws: the RNG is
        seeded from ``(loss_seed, name)`` on the first draw, and neither
        clean traffic nor control packets draw."""
        def send(link, psns):
            for i in psns:
                link.deliver(
                    make_ack(0, 1, ack_psn=i) if i % 4 == 3
                    else make_data_packet(0, 1, psn=i, payload=1000,
                                          mtu_payload=1000))

        def run(raise_at):
            sim = Simulator()
            sink = Sink()
            link = Link(sim, sink, 0, 10, name="h0->leaf0",
                        loss_rate=0.3 if raise_at == 0 else 0.0,
                        loss_seed=11)
            send(link, range(raise_at))
            sim.run()
            assert link._loss_rng is None or raise_at == 0
            FailureInjector(sim).loss_burst(link, 0.3, at_ns=sim.now)
            sim.run()
            send(link, range(raise_at, 200))
            sim.run()
            return [p.psn if p.kind == PacketKind.DATA else p.ack_psn
                    for p, _ in sink.received], link

        def expected(raise_at):
            rng = random.Random(11 ^ zlib.crc32(b"h0->leaf0"))
            return [i for i in range(200)
                    if i < raise_at or i % 4 == 3 or rng.random() >= 0.3]

        for raise_at in (0, 50):
            arrived, link = run(raise_at)
            assert arrived == expected(raise_at)
            assert 60 < len(arrived) < 200 - 20
            assert link.stats.dropped_loss == 200 - len(arrived)

class TestEgressPort:
    def _switch(self, sim, sink, rate=100.0):
        """A one-port switch whose port drives a 100 ns link to ``sink``."""
        sw = Switch(sim, 0, SwitchConfig(num_ports=1, rate_bits_per_ns=rate),
                    EcmpLoadBalancer())
        sw.attach(0, Link(sim, sink, 0, prop_delay_ns=100), sink, 0)
        return sw

    def _port(self, sim, sink, rate=100.0):
        return self._switch(sim, sink, rate).ports[0]

    def test_serialization_plus_propagation(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.enqueue(_pkt(1000))  # 80 ns at 100 Gbps + 100 ns prop
        sim.run()
        assert sim.now == 180
        assert sink.received

    def test_back_to_back_serialization(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.enqueue(_pkt(1000))
        port.enqueue(_pkt(1000))
        sim.run()
        # second packet leaves at 160, arrives at 260
        assert sim.now == 260
        assert len(sink.received) == 2

    def test_pause_blocks_class(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.pause(0)
        port.enqueue(_pkt())
        sim.run()
        assert sink.received == []
        port.resume(0)
        sim.run()
        assert len(sink.received) == 1

    def test_wrr_between_classes(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        for _ in range(10):
            port.enqueue(_pkt(1000), cls=0)
            port.enqueue(Packet(src=0, dst=1, kind=PacketKind.HO,
                                size_bytes=57), cls=1)
        sim.run()
        assert len(sink.received) == 20

    def test_utilization(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.enqueue(_pkt(1000))
        sim.run()
        assert port.utilization(80) == 1.0
        assert port.link.stats.delivered_bytes == 1000

    def test_tx_done_releases_the_switch_buffer(self):
        """The ingress port rides on the packet until the egress port
        has released the switch's buffer; the next link then stamps the
        port it delivers to."""
        sim = Simulator()
        sink = Sink()
        sw = Switch(sim, 0, SwitchConfig(num_ports=2, rate_bits_per_ns=100.0),
                    EcmpLoadBalancer())
        sw.attach(0, Link(sim, sink, 3, prop_delay_ns=100), sink, 3)
        sw.routing_table[1] = (0,)
        p = _pkt()
        p.ingress_hint = 1
        sw.receive(p)
        assert sw.buffered_bytes == 1000 and p.ingress_hint == 1
        sim.run()
        assert sink.received == [(p, 3)]
        assert sw.buffered_bytes == 0 and p.ingress_hint == 3

    def test_buffered_bytes(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.pause(0)
        port.enqueue(_pkt(300))
        port.enqueue(_pkt(200))
        assert port.buffered_bytes == 500
