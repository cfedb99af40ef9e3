"""Starting a fluid flow is O(1) and shared: the work counters.

Wall time is noisy; these counts are not.  One timeline per distinct
(size, NIC rate, hops, one-way delay) however many flows run on it, a
constructor whose call count does not depend on the flow size, a memo
that stays under its bound, and sharing that leaks nothing from one
flow into the next.
"""

import sys
from types import SimpleNamespace

from repro.experiments.common import build_network
from repro.sim import fidelity
from repro.sim.fidelity import SCHEDULE_MEMO_BOUND, FluidTimeline
from repro.workload.collective import run_grouped_collectives


def _count_constructions(monkeypatch) -> list:
    built = []

    class Counting(FluidTimeline):
        __slots__ = ()

        def __init__(self, size_bytes, *args):
            built.append(size_bytes)
            super().__init__(size_bytes, *args)

    monkeypatch.setattr(fidelity, "FluidTimeline", Counting)
    return built


def _state(timeline) -> dict:
    return {slot: getattr(timeline, slot) for slot in FluidTimeline.__slots__}


def test_one_timeline_per_key_on_a_64_host_allreduce(monkeypatch):
    built = _count_constructions(monkeypatch)
    net = build_network(transport="dcp", lb="ar", cc="none", topology="clos",
                        num_hosts=64, num_leaves=8, num_spines=4,
                        link_rate=10.0, seed=73, fidelity="hybrid")
    run_grouped_collectives(net, "allreduce", 8, 8, 400_000)
    net.run_until_flows_done(max_events=10_000_000)
    ctrl, fab = net.fidelity, net.fabric
    assert ctrl.fluid_flows == len(net.flows) == 896
    keys = {(f.size_bytes, net.hosts[f.src].nic.rate,
             fab.store_forward_hops(f.src, f.dst),
             fab.base_oneway_ns(f.src, f.dst)) for f in net.flows}
    assert set(ctrl._schedules) == keys
    assert len(built) == len(keys) <= 2


def _python_calls(fn) -> int:
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_construction_cost_does_not_depend_on_flow_size():
    def build(size):
        return FluidTimeline(size, 1000, 5000, 58, lambda b: b * 8 // 100,
                             2, 3_000)

    small = _python_calls(lambda: build(10_000))
    assert small == _python_calls(lambda: build(1_000_000_000))
    assert small == _python_calls(lambda: build(999_999_937))  # ragged end
    assert small < 20
    # ... and neither do the quantum rows, once both flows are long
    # enough to get every quantum.
    rows = [_python_calls(lambda tl=build(size): tl.sample_schedule(32, 8_000))
            for size in (10_000_000, 1_000_000_000)]
    assert rows[0] == rows[1]


def test_memo_stays_under_its_bound():
    net = build_network(transport="dcp", topology="direct", num_hosts=2,
                        link_rate=100.0, seed=1, fidelity="hybrid")
    ctrl = net.fidelity
    first = SimpleNamespace(src=0, dst=1, size_bytes=1)
    kept = ctrl.schedule_for(first)
    for size in range(2, 10_001):
        ctrl.schedule_for(SimpleNamespace(src=0, dst=1, size_bytes=size))
        if size % 100 == 0:     # keep the first one recently used
            assert ctrl.schedule_for(first) is kept
        assert len(ctrl._schedules) <= SCHEDULE_MEMO_BOUND
    assert len(ctrl._schedules) == SCHEDULE_MEMO_BOUND
    # Least recently used goes first: size 2 is long gone, 10 000 is not.
    sizes = {key[0] for key in ctrl._schedules}
    assert 1 in sizes and 10_000 in sizes and 2 not in sizes


def test_sharing_survives_an_escalated_flow(monkeypatch):
    """Two equal flows on equal paths share one timeline.  The first is
    escalated mid-flight; the second, alone much later, must still land
    exactly where the packet engine puts it."""
    size, late_ns = 300_000, 50_000_000
    spec = dict(transport="dcp", lb="ar", cc="none", topology="clos",
                num_hosts=8, num_leaves=2, num_spines=2, link_rate=10.0,
                seed=5)
    packet = build_network(fidelity="packet", **spec)
    lone = packet.open_flow(4, 5, size, late_ns)
    packet.run_until_flows_done(max_events=10_000_000)

    built = _count_constructions(monkeypatch)
    net = build_network(fidelity="hybrid", **spec)
    ctrl = net.fidelity
    early = net.open_flow(0, 1, size, 7_000)
    snapshot = []
    net.sim.schedule(7_001, lambda: snapshot.extend(
        (tl, _state(tl), rows, tuple(map(tuple, rows)))
        for tl, rows in ctrl._schedules.values()))
    intruder = net.open_flow(2, 1, 40_000, 107_000)   # same receiver
    late = net.open_flow(4, 5, size, late_ns)
    net.run_until_flows_done(max_events=10_000_000)

    assert early.completed and intruder.completed and late.completed
    summary = ctrl.summary()
    assert summary["escalations"] == 1
    assert summary["reasons"] == {"uncontended": 2, "dst_contention": 1,
                                  "new_flow_contention": 1}
    assert built == [size]                      # early and late shared it
    (timeline, state, rows, rows_then), = snapshot
    (shared, shared_rows), = ctrl._schedules.values()
    assert shared is timeline and shared_rows is rows
    assert _state(timeline) == state
    assert tuple(map(tuple, rows)) == rows_then
    assert late.fct_ns() == lone.fct_ns()
