"""Unit tests for time-series sampling and failure injection."""

import pytest

from repro.experiments.common import build_network
from repro.net.failures import FailureInjector
from repro.obs import registry as metrics
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import MetricsSampler, Series
from repro.sim.engine import Simulator


class TestSeries:
    def test_stats(self):
        s = Series("q")
        for t, v in ((0, 0.0), (10, 10.0), (20, 0.0)):
            s.append(t, v)
        assert s.times_ns == [0, 10, 20]
        assert s.values == [0.0, 10.0, 0.0]


class TestSampler:
    def test_samples_at_interval(self):
        sim = Simulator()
        state = {"v": 0}
        reg = MetricsRegistry()
        reg.gauge("v", lambda: state["v"])
        sampler = MetricsSampler(sim, reg, interval_ns=100)
        sampler.start(until_ns=1_000)
        sim.schedule(450, lambda: state.__setitem__("v", 7))
        sim.run(until=2_000)
        series = sampler.series["v"]
        assert len(series.times_ns) == 11  # t=0..1000 inclusive
        assert series.values[0] == 0
        assert series.values[-1] == 7

    def test_samples_switch_queue_depths(self):
        reg = MetricsRegistry()
        metrics.install(reg)
        try:
            net = build_network(transport="dcp", topology="clos",
                                num_hosts=8, num_leaves=2, num_spines=2,
                                link_rate=10.0, lb="ar", seed=3,
                                buffer_bytes=300_000)
        finally:
            metrics.install(None)
        queues = [g for g in reg.gauges("switch.leaf0.p0.")
                  if not g.name.endswith(".busy_ns")]
        sampler = MetricsSampler(net.sim, reg, interval_ns=5_000,
                                 gauges=queues)
        sampler.start(until_ns=500_000)
        for s in (1, 2, 3, 4):
            net.open_flow(s, 0, 60_000, 0)
        net.run_until_flows_done(max_events=20_000_000)
        series = reg.to_payload()["series"]
        assert list(series) == ["switch.leaf0.p0.data_bytes",
                                "switch.leaf0.p0.ctrl_bytes"]
        data, ctrl = series.values()
        assert max(data["values"]) > 0  # the incast built a queue
        assert len(ctrl["values"]) == len(data["values"])

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsSampler(Simulator(), MetricsRegistry(), interval_ns=0)

    def test_unbounded_sampler_goes_dormant_when_sim_drains(self):
        # start() without until_ns must not keep the heap alive forever:
        # a run-to-empty simulation has to terminate shortly after the
        # last real event instead of sampling until max_events.
        sim = Simulator()
        state = {"v": 0}
        reg = MetricsRegistry()
        reg.gauge("v", lambda: state["v"])
        sampler = MetricsSampler(sim, reg, interval_ns=100)
        sampler.start()
        sim.schedule(450, lambda: state.__setitem__("v", 7))
        sim.run(max_events=1_000_000)
        series = sampler.series["v"]
        assert sim.peek_time() is None  # heap fully drained
        assert series.times_ns[-1] <= 550  # one tick past the last event
        assert series.values[-1] == 7


class TestFailureInjector:
    def test_link_failure_and_recovery(self):
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=1, link_rate=10.0, lb="ecmp", seed=3,
                            transport_overrides={"coarse_timeout_ns": 200_000})
        injector = FailureInjector(net.sim)
        sw1 = net.fabric.switches[0]
        event = injector.fail_link(sw1, 2, at_ns=30_000,
                                   recover_at_ns=500_000)
        flow = net.open_flow(0, 2, 200_000, 0)
        net.run_until_flows_done(max_events=20_000_000)
        assert flow.completed
        assert event.kind == "link"
        assert sw1.ports[2].link.up

    def test_routing_convergence_removes_port(self):
        net = build_network(transport="dcp", topology="testbed", num_hosts=4,
                            cross_links=2, link_rate=10.0, lb="ecmp", seed=3)
        injector = FailureInjector(net.sim)
        sw1 = net.fabric.switches[0]
        injector.fail_link(sw1, 3, at_ns=0, recover_at_ns=100_000,
                           converge_routing=True)
        net.sim.run(until=50_000)
        assert all(3 not in ports or len(ports) == 1
                   for ports in sw1.routing_table.values())
        net.sim.run(until=200_000)
        assert any(3 in ports for ports in sw1.routing_table.values())

    def test_switch_blackout(self):
        net = build_network(transport="dcp", topology="clos", num_hosts=8,
                            num_leaves=2, num_spines=2, link_rate=10.0,
                            lb="ar", seed=3,
                            transport_overrides={"coarse_timeout_ns": 200_000})
        injector = FailureInjector(net.sim)
        spine = net.fabric.switches[2]
        injector.fail_switch(spine, at_ns=10_000, recover_at_ns=800_000)
        flow = net.open_flow(0, 7, 150_000, 0)
        net.run_until_flows_done(max_events=20_000_000)
        assert flow.completed

    def test_unwired_port_rejected(self):
        sim = Simulator()
        from repro.net.routing import EcmpLoadBalancer
        from repro.net.switch import Switch, SwitchConfig
        sw = Switch(sim, 0, SwitchConfig(num_ports=2), EcmpLoadBalancer())
        with pytest.raises(ValueError):
            FailureInjector(sim).fail_link(sw, 0, at_ns=0)
