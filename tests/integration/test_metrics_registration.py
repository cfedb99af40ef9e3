"""Metric registration records components, not instruments.

A :class:`~repro.obs.registry.MetricsRegistry` stores one entry per
registered block and one row per gauge, and builds names (with their
``#N`` suffixes) and values only when read.  These tests hold it to the
registry it replaced, which fixed every name and wrapped every value at
registration:

* the payload — names, order, suffixes, values — equals that eager
  expansion over the same registration calls;
* a 256-host build allocates a bounded number of tracked objects, so
  registration cannot drift back to an object per instrument;
* a sampled run records the series it recorded before.
"""

from __future__ import annotations

import gc
import hashlib
import json

from repro.experiments.common import Network, NetworkSpec, build_network
from repro.net.failures import FailureInjector
from repro.obs import registry as metrics
from repro.obs.registry import MetricsRegistry
from repro.runner.points import simulate_flows


def _unique(taken, name):
    if name not in taken:
        return name
    n = 2
    while f"{name}#{n}" in taken:
        n += 1
    return f"{name}#{n}"


class _EagerRegistry:
    """The reference: each field and gauge is named, suffixed and given
    a reader the moment it is registered."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}

    def register_block(self, prefix, block):
        for field in block.FIELDS:
            name = _unique(self.counters, f"{prefix}.{field}")
            self.counters[name] = lambda b=block, f=field: getattr(b, f)

    def counter(self, name, counter):
        """Get-or-create, reading ``counter`` when the name is new."""
        if name not in self.counters:
            self.counters[name] = lambda: counter.value

    def gauge(self, name, obj, attr=None):
        probe = obj if attr is None else (lambda: getattr(obj, attr))
        self.gauges[_unique(self.gauges, name)] = probe

    def payload(self):
        return ([(n, read()) for n, read in self.counters.items()],
                [(n, float(read())) for n, read in self.gauges.items()])


class _Tee:
    """Installed as the active registry: every registration reaches
    both, and the registry under test answers."""

    def __init__(self, registry, reference):
        self.registry = registry
        self.reference = reference

    def register_block(self, prefix, block):
        self.reference.register_block(prefix, block)
        self.registry.register_block(prefix, block)

    def gauge(self, name, obj, attr=None):
        self.reference.gauge(name, obj, attr)
        self.registry.gauge(name, obj, attr)

    def counter(self, name):
        counter = self.registry.counter(name)
        self.reference.counter(name, counter)
        return counter


def test_payload_equals_the_eager_expansion():
    registry = MetricsRegistry()
    reference = _EagerRegistry()
    metrics.install(_Tee(registry, reference))
    try:
        # Two networks into one registry: the second's switch, link,
        # NIC and transport names repeat the first's and take ``#2``.
        nets = [build_network(transport=transport, topology="clos",
                              num_hosts=8, num_leaves=2, num_spines=2,
                              link_rate=10.0, lb="ecmp", seed=3)
                for transport in ("gbn", "dcp")]
        nets.append(build_network(transport="rifl", topology="testbed",
                                  num_hosts=4, cross_links=2,
                                  link_rate=10.0, lb="ecmp", seed=3))
        leaf0 = nets[1].fabric.switches[0]
        injector = FailureInjector(nets[1].sim)
        injector.fail_link(leaf0, 4, at_ns=2_000, recover_at_ns=9_000)
        for net in nets:
            for src in range(1, 4):
                net.open_flow(src, 0, 20_000, 0)
            net.run_until_flows_done(max_events=1_000_000)
        # Get-or-create a plain counter, after everything else.
        adhoc = metrics.counter("adhoc.events")
        adhoc.inc(3)
        assert metrics.counter("adhoc.events") is adhoc
    finally:
        metrics.install(None)

    payload = registry.to_payload()
    counters, gauges = reference.payload()
    assert list(payload["counters"].items()) == counters
    assert list(payload["gauges"].items()) == gauges
    assert payload["counters"]["adhoc.events"] == 3
    assert payload["counters"]["chaos.injected"] == 1
    assert (payload["counters"]["switch.leaf0.forwarded#2"]
            == leaf0.stats.forwarded > 0)
    assert any(n.startswith("pfc.") for n in payload["counters"])
    assert any(n.startswith("rifl.") for n in payload["counters"])
    assert [g.name for g in registry.gauges()] == [n for n, _ in gauges]
    assert [g.name for g in registry.gauges("chaos.")] == [
        n for n, _ in gauges if n.startswith("chaos.")]


#: Tracked objects a 256-host, 32 x 16 Clos build leaves alive with a
#: registry installed: 27 800 measured.  A wrapper per counter, a
#: closure and a ``Gauge`` per gauge and a list per (switch,
#: destination) route made it 56 600.  Dicts are left out of the count:
#: before Python 3.11 every instance carries its own, which would make
#: the figure version-bound.
BUILD_OBJECT_BUDGET = 28_300


def _tracked_objects_of_a_build(spec: NetworkSpec) -> int:
    registry = MetricsRegistry()
    metrics.install(registry)
    try:
        Network(spec)                   # imports and first-use caches
        gc.collect()
        # Held, so no object alive now can free its id for a new one.
        snapshot = gc.get_objects()
        before = {id(o) for o in snapshot}
        net = Network(spec)
        gc.collect()
        return sum(1 for o in gc.get_objects()
                   if id(o) not in before and type(o) is not dict
                   and o is not snapshot and o is not net)
    finally:
        metrics.install(None)


def test_a_256_host_build_stays_inside_its_object_budget():
    spec = NetworkSpec(topology="clos", num_hosts=256, num_leaves=32,
                       num_spines=16, link_rate=100.0, transport="dcp",
                       lb="ar", fidelity="hybrid", seed=1)
    assert _tracked_objects_of_a_build(spec) <= BUILD_OBJECT_BUDGET


#: sha256 of the sampled ``metrics`` block (series and final gauges) of
#: the point below, as the closure-per-gauge registry recorded it.
SAMPLED_METRICS_SHA256 = (
    "90d15626298408676c1bd1d6a5a677551f3e757fe0d78412b09d541fcdca1c07")


def test_a_sampled_run_records_the_same_series():
    spec = NetworkSpec(transport="gbn", topology="clos", num_hosts=8,
                       num_leaves=2, num_spines=2, link_rate=10.0,
                       lb="ecmp", seed=3)
    payload = simulate_flows(spec, {
        "flows": [[src, 0, 30_000, 0] for src in range(1, 8)],
        "telemetry": {"sample_interval_ns": 5_000}})
    block = payload["metrics"]
    assert len(block["series"]) == len(block["gauges"])
    encoded = json.dumps([block["series"], block["gauges"]]).encode()
    assert hashlib.sha256(encoded).hexdigest() == SAMPLED_METRICS_SHA256
