"""Unit tests for links and egress ports."""

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port))


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
        assert p.hops == 1

    def test_down_link_discards(self):
        sim = Simulator()
        sink = Sink()
        link = Link(sim, sink, 0, 10)
        link.up = False
        link.deliver(_pkt())
        sim.run()
        assert sink.received == []


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
        assert port.tx_bytes == 1000

    def test_tx_done_releases_the_switch_buffer(self):
        sim = Simulator()
        sink = Sink()
        sw = self._switch(sim, sink)
        sw.add_route(1, 0)
        p = _pkt()
        sw.receive(p, in_port=0)
        assert sw.buffered_bytes == 1000 and p.ingress_hint == 0
        sim.run()
        assert sink.received == [(p, 0)]
        assert sw.buffered_bytes == 0 and p.ingress_hint == -1

    def test_buffered_bytes(self):
        sim = Simulator()
        sink = Sink()
        port = self._port(sim, sink)
        port.pause(0)
        port.enqueue(_pkt(300))
        port.enqueue(_pkt(200))
        assert port.buffered_bytes == 500
        assert port.buffered_packets == 2
