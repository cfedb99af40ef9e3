"""Unit tests for load balancers."""

import pytest

from repro.net.packet import Packet, PacketKind
from repro.net.routing import (AdaptiveLoadBalancer, EcmpLoadBalancer,
                               flow_hash, make_load_balancer)
from repro.net.switch import Switch, SwitchConfig
from repro.sim.engine import Simulator


def _pkt(flow_id=1, entropy=0):
    return Packet(src=0, dst=1, kind=PacketKind.DATA, size_bytes=1000,
                  flow_id=flow_id, entropy=entropy)


def _switch(num_ports=4):
    sim = Simulator()
    cfg = SwitchConfig(num_ports=num_ports)
    return Switch(sim, 0, cfg, EcmpLoadBalancer())


def _load(port, packet):
    """Park a packet in the data queue without starting the transmitter.

    Goes through ``enqueue`` (with the class paused) so the port's
    running ``buffered_bytes`` total stays in
    sync — adaptive balancers read those, not the queues.
    """
    port.pause(0)
    assert port.enqueue(packet, 0)


def test_flow_hash_deterministic():
    assert flow_hash(_pkt(5)) == flow_hash(_pkt(5))
    assert flow_hash(_pkt(5)) != flow_hash(_pkt(6))


def test_ecmp_sticky_per_flow():
    sw = _switch()
    lb = EcmpLoadBalancer()
    choices = {lb.pick(sw, _pkt(flow_id=9), [0, 1, 2, 3]) for _ in range(20)}
    assert len(choices) == 1


def test_ecmp_spreads_across_flows():
    sw = _switch()
    lb = EcmpLoadBalancer()
    choices = {lb.pick(sw, _pkt(flow_id=f), [0, 1, 2, 3]) for f in range(64)}
    assert len(choices) >= 3


def test_ecmp_entropy_changes_path():
    sw = _switch()
    lb = EcmpLoadBalancer()
    picks = {lb.pick(sw, _pkt(flow_id=1, entropy=e), [0, 1, 2, 3])
             for e in range(32)}
    assert len(picks) >= 3  # MP-RDMA's per-packet VPs really multipath


def test_adaptive_picks_least_loaded():
    sw = _switch()
    lb = AdaptiveLoadBalancer()
    _load(sw.ports[0], _pkt())
    _load(sw.ports[1], _pkt())
    assert lb.pick(sw, _pkt(), [0, 1, 2]) == 2


def test_adaptive_tie_break_deterministic():
    sw = _switch()
    lb = AdaptiveLoadBalancer()
    a = lb.pick(sw, _pkt(flow_id=4), [0, 1, 2, 3])
    b = lb.pick(sw, _pkt(flow_id=4), [0, 1, 2, 3])
    assert a == b


def test_factory():
    assert isinstance(make_load_balancer("ecmp"), EcmpLoadBalancer)
    assert isinstance(make_load_balancer("ar"), AdaptiveLoadBalancer)
    with pytest.raises(ValueError):
        make_load_balancer("nope")
