"""Unit tests for topology builders and routing tables."""

import pytest

from repro.experiments.common import build_network
from repro.net.routing import EcmpLoadBalancer
from repro.net.switch import SwitchConfig
from repro.net.topology import build_clos, build_testbed
from repro.rnic.base import Host, HostNic, TransportConfig
from repro.rnic.gbn import GbnTransport
from repro.sim.engine import Simulator


def _hosts(sim, n):
    out = []
    for hid in range(n):
        nic = HostNic(sim, 10.0)
        tr = GbnTransport(sim, hid, TransportConfig())
        out.append(Host(sim, hid, nic, tr))
    return out


def _cfg(num_ports):
    return SwitchConfig(num_ports=num_ports, rate_bits_per_ns=10.0)


class TestClos:
    def test_structure(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, num_leaves=2, num_spines=2,
                         switch_config_factory=_cfg,
                         lb_factory=EcmpLoadBalancer)
        assert len(fab.switches) == 4
        leaves = fab.switches[:2]
        spines = fab.switches[2:]
        assert all(len(leaf.ports) == 4 + 2 for leaf in leaves)
        assert all(len(spine.ports) == 2 for spine in spines)

    def test_uneven_hosts_rejected(self):
        sim = Simulator()
        hosts = _hosts(sim, 7)
        with pytest.raises(ValueError):
            build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)

    def test_local_route_single_port(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)
        leaf0 = fab.switches[0]
        assert leaf0.routing_table[0] == (0,)      # local host, down port
        assert len(leaf0.routing_table[7]) == 2    # remote host, all uplinks

    def test_spine_routes_to_leaf(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer)
        spine = fab.switches[2]
        assert spine.routing_table[0] == (0,)
        assert spine.routing_table[5] == (1,)

    def test_oneway_delay_intra_vs_inter_rack(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer,
                         host_link_delay_ns=1000, spine_link_delay_ns=2000)
        assert fab.base_oneway_ns(0, 1) == 2000          # same rack
        assert fab.base_oneway_ns(0, 7) == 2000 + 4000   # via spine

    def test_ideal_fct_accounts_headers(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_clos(sim, hosts, 2, 2, _cfg, EcmpLoadBalancer,
                         rate=10.0)
        fct = fab.ideal_fct_ns(0, 7, 10_000)
        # 10 packets x (1000 + 57) bytes at 10 Gbps = 8456 ns + delay
        assert fct == fab.base_oneway_ns(0, 7) + 8456


class TestTestbed:
    def test_structure(self):
        sim = Simulator()
        hosts = _hosts(sim, 16)
        fab = build_testbed(sim, hosts, _cfg, EcmpLoadBalancer,
                            cross_links=8)
        assert len(fab.switches) == 2
        assert len(fab.switches[0].ports) == 8 + 8

    def test_cross_routes(self):
        sim = Simulator()
        hosts = _hosts(sim, 8)
        fab = build_testbed(sim, hosts, _cfg, EcmpLoadBalancer,
                            cross_links=4)
        sw1, sw2 = fab.switches
        assert sw1.routing_table[0] == (0,)
        assert len(sw1.routing_table[5]) == 4   # remote: all cross links
        assert sw2.routing_table[5] == (1,)

    def test_odd_hosts_rejected(self):
        sim = Simulator()
        hosts = _hosts(sim, 5)
        with pytest.raises(ValueError):
            build_testbed(sim, hosts, _cfg, EcmpLoadBalancer)

    def test_cross_port_rate_override(self):
        net = build_network(transport="gbn", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0,
                            cross_port_rates={0: 10.0, 1: 1.0})
        sw1 = net.fabric.switches[0]
        assert sw1.ports[2].rate == 10.0
        assert sw1.ports[3].rate == 1.0


class TestDelivery:
    def test_all_pairs_reachable_clos(self):
        net = build_network(transport="gbn", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0)
        flows = []
        for src in range(8):
            dst = (src + 3) % 8
            flows.append(net.open_flow(src, dst, 5_000, src * 1000))
        net.run_until_flows_done(max_events=5_000_000)
        assert all(f.completed for f in flows)

    def test_direct_topology_requires_two_hosts(self):
        with pytest.raises(ValueError):
            build_network(transport="gbn", topology="direct", num_hosts=3)


# ------------------------------ routing tables, shared immutable entries
def _add_route(sw, dst, port):
    sw.routing_table.setdefault(dst, []).append(port)


def _clos_by_add_route(fab, num_leaves, num_spines):
    """The per-port ``add_route`` construction the builder replaced."""
    hosts_per_leaf = len(fab.hosts) // num_leaves
    leaves, spines = fab.switches[:num_leaves], fab.switches[num_leaves:]
    for dst, host in enumerate(fab.hosts):
        dst_leaf = dst // hosts_per_leaf
        for li, leaf in enumerate(leaves):
            if li == dst_leaf:
                _add_route(leaf, host.host_id, dst % hosts_per_leaf)
            else:
                for si in range(num_spines):
                    _add_route(leaf, host.host_id, hosts_per_leaf + si)
        for spine in spines:
            _add_route(spine, host.host_id, dst_leaf)


def _testbed_by_add_route(fab, cross_links):
    half = len(fab.hosts) // 2
    sw1, sw2 = fab.switches
    for dst, host in enumerate(fab.hosts):
        local_sw, remote_sw = (sw1, sw2) if dst < half else (sw2, sw1)
        _add_route(local_sw, host.host_id, dst % half)
        for c in range(cross_links):
            _add_route(remote_sw, host.host_id, half + c)


def _assert_tables_match_add_route(fab, rebuild):
    built = [list(sw.routing_table.items()) for sw in fab.switches]
    entries = [ports for table in built for _, ports in table]
    # Entries may be shared, so none may be editable in place
    # (FailureInjector(converge_routing=True) swaps them instead).
    assert all(type(ports) is tuple for ports in entries)
    # One object per distinct candidate set.
    assert len({id(ports) for ports in entries}) == len(set(entries))
    for sw in fab.switches:
        sw.routing_table = {}
    rebuild()
    # Same keys, same insertion order, same candidate order.
    assert built == [[(dst, tuple(ports))
                      for dst, ports in sw.routing_table.items()]
                     for sw in fab.switches]


@pytest.mark.parametrize("num_hosts,num_leaves,num_spines", [
    (8, 2, 2),          # the unit-test clos
    (64, 8, 4),         # collective64
    (256, 32, 16),      # hybrid256
])
def test_clos_tables_equal_the_add_route_construction(
        num_hosts, num_leaves, num_spines):
    sim = Simulator()
    fab = build_clos(sim, _hosts(sim, num_hosts), num_leaves, num_spines,
                     _cfg, EcmpLoadBalancer)
    _assert_tables_match_add_route(
        fab, lambda: _clos_by_add_route(fab, num_leaves, num_spines))


@pytest.mark.parametrize("num_hosts,cross_links", [(8, 4), (16, 8), (4, 1)])
def test_testbed_tables_equal_the_add_route_construction(num_hosts,
                                                         cross_links):
    sim = Simulator()
    fab = build_testbed(sim, _hosts(sim, num_hosts), _cfg, EcmpLoadBalancer,
                        cross_links=cross_links)
    _assert_tables_match_add_route(
        fab, lambda: _testbed_by_add_route(fab, cross_links))
