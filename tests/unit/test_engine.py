"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Entity, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 300


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(50, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule(10, lambda: fired.append(1))
    token.cancel()
    sim.schedule(20, lambda: fired.append(2))
    sim.run()
    assert fired == [2]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.schedule(200, lambda: fired.append(2))
    sim.run(until=150)
    assert fired == [1]
    assert sim.now == 150
    sim.run()
    assert fired == [1, 2]


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(until=100)
    assert fired == [1]


def test_max_events_limit():
    sim = Simulator()
    count = []

    def reschedule():
        count.append(1)
        sim.schedule(1, reschedule)

    sim.schedule(0, reschedule)
    sim.run(max_events=5)
    assert len(count) == 5


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(5, lambda: order.append("nested"))

    sim.schedule(10, first)
    sim.schedule(100, lambda: order.append("last"))
    sim.run()
    assert order == ["first", "nested", "last"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [50]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    t1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    t1.cancel()
    assert sim.peek_time() == 20


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_entity_after_uses_shared_clock():
    sim = Simulator()

    class Thing(Entity):
        def __init__(self, sim):
            super().__init__(sim)
            self.fired_at = None

        def go(self):
            self.after(7, lambda: setattr(self, "fired_at", self.now))

    thing = Thing(sim)
    sim.schedule(3, thing.go)
    sim.run()
    assert thing.fired_at == 10


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_mid_run_heap_compaction_keeps_event_stream_intact():
    """Regression: compacting the heap mid-run must not split the stream.

    ``run()`` holds a reference to the heap list across callbacks, so
    ``_compact_heap`` has to mutate it in place.  A version that rebound
    ``self._heap`` made the running loop drain a stale list while new
    events went to the fresh one: events fired out of order (simulated
    time went backwards) or not at all.  Force a compaction from inside
    a callback and check the survivors still fire, in order.
    """
    sim = Simulator()
    fired = []
    # Far enough out to land in the heap, not the timer wheel.
    tokens = [sim.schedule(30_000_000 + i * 1_000,
                           lambda i=i: fired.append((sim.now, i)))
              for i in range(100)]

    def sabotage():
        for token in tokens[40:]:
            token.cancel()
        # >50% of heap entries now dead; this schedule triggers the
        # in-run compaction the old code corrupted.
        sim.schedule(100_000_000, on_late)

    def on_late():
        fired.append((sim.now, "late"))
        # Scheduled *after* the compaction: with the rebinding bug this
        # lands in a list the running loop no longer drains and is
        # silently lost (far-future on purpose — it must hit the heap,
        # not the timer wheel).
        sim.schedule(50_000_000, lambda: fired.append((sim.now, "final")))

    sim.schedule(1_000, sabotage)
    sim.run()

    times = [t for t, _ in fired]
    assert times == sorted(times), "simulated time went backwards"
    assert [i for _, i in fired[:40]] == list(range(40))
    assert fired[-2] == (100_001_000, "late")
    assert fired[-1] == (150_001_000, "final"), "post-compaction event lost"
    assert sim.events_processed == 1 + 40 + 1 + 1


# ------------------------------------------------- kernel backend selection

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.kernel as kernel_pkg

try:
    import numpy  # noqa: F401
    _HAVE_NUMPY = True
except ImportError:
    _HAVE_NUMPY = False

def test_default_kernel_is_ref(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert Simulator().kernel.name == "ref"


def test_env_selects_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "ref")
    assert Simulator().kernel.name == "ref"


def test_explicit_kernel_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "nonsense")
    assert Simulator(kernel="ref").kernel.name == "ref"


def test_unknown_kernel_is_a_hard_error(monkeypatch):
    """A typo in REPRO_KERNEL must not silently change the backend."""
    monkeypatch.setenv("REPRO_KERNEL", "typo")
    with pytest.raises(ValueError, match="typo"):
        Simulator()


def test_array_requested_without_numpy_falls_back_to_ref(monkeypatch):
    """Always-on fallback check: runs whether or not numpy is installed.

    Simulates numpy's absence by poisoning ``sys.modules``, so the
    selection path degrades to ``ref`` with a RuntimeWarning instead of
    crashing — experiment scripts must keep working on a bare install.
    """
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "repro.sim.kernel.array_np",
                        raising=False)
    monkeypatch.setattr(kernel_pkg, "_FALLBACK_WARNED", False)
    monkeypatch.setenv("REPRO_KERNEL", "array")
    assert kernel_pkg.available_backends() == ["ref"]
    with pytest.warns(RuntimeWarning, match="falling back"):
        sim = Simulator()
    assert sim.kernel.name == "ref"
    fired = []
    sim.schedule(5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5] and sim.events_processed == 1


def test_array_present_is_listed_or_absent_consistently():
    backends = kernel_pkg.available_backends()
    assert backends[0] == "ref"
    assert ("array" in backends) == _HAVE_NUMPY


# ------------------------------------- ref == array kernel equivalence
#
# The property: for arbitrary interleavings of schedule / cancel
# operations whose delays span all three timer tiers (wheel
# L0 < 2**18 ns, wheel L1 < 2**24 ns, far store beyond the horizon),
# the two kernels fire the exact same (when, tag) sequence, with the
# same events_processed accounting.  Half the operations are applied
# from *inside* callbacks, so mid-run insertion (including behind the
# ring position) and mid-run cancellation are exercised too.

_TIERED_DELAY = st.one_of(
    st.integers(0, 2**18),            # wheel level 0 span
    st.integers(2**18, 2**24 - 1),    # wheel level 1 span
    st.integers(2**24, 2**30),        # beyond the horizon: far store
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _TIERED_DELAY, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 10**6), st.just(False)),
    ),
    min_size=1, max_size=30)


def _drive(kernel_name, ops):
    sim = Simulator(kernel=kernel_name)
    fired = []
    tokens = []
    tags = iter(range(10**9))

    def note(tag):
        fired.append((sim.now, tag))

    def apply(op):
        kind = op[0]
        if kind == "one":
            _, delay, cancel_mid = op
            tag = next(tags)
            tokens.append(sim.schedule(delay, lambda tag=tag: note(tag)))
            if cancel_mid and tokens:
                tokens[len(tokens) // 2].cancel()
        else:
            _, pick, _ = op
            if tokens:
                tokens[pick % len(tokens)].cancel()

    # Half up front, half from inside callbacks at staggered times, so
    # insertion happens both before and during the drain.
    for op in ops[::2]:
        apply(op)
    for i, op in enumerate(ops[1::2]):
        sim.call_after(1 + i * 700, apply, op)
    sim.run()
    assert sim.pending() == 0
    return fired, sim.events_processed, sim.now


@pytest.mark.kernel_array
@pytest.mark.skipif(not _HAVE_NUMPY,
                    reason="numpy not installed ([kernel] extra)")
@settings(deadline=None, max_examples=60)
@given(ops=_OPS)
def test_ref_and_array_kernels_pop_identically(ops):
    assert _drive("ref", ops) == _drive("array", ops)


@settings(deadline=None, max_examples=100)
@given(delays=st.lists(_TIERED_DELAY, min_size=2, max_size=16),
       cancel_at=_TIERED_DELAY,
       kernel=st.sampled_from(kernel_pkg.available_backends()))
def test_cancelled_entries_do_not_fire_or_count(delays, cancel_at, kernel):
    """Entries whose token is cancelled mid-run are skipped when due —
    in the wheel and in the far store alike — without counting toward
    ``events_processed``.  ``RestartableTimer`` cancels and re-arms once
    per ACK, so a counted skip would make the event count depend on how
    many timers were superseded."""
    sim = Simulator(kernel=kernel)
    fired = []
    tokens = []

    def cancel_all():
        for token in tokens:
            token.cancel()

    # Scheduled first, so the cancel wins same-time ties: only entries
    # strictly earlier than it may fire.
    sim.schedule(cancel_at, cancel_all)
    tokens.extend(sim.schedule(d, lambda i=i: fired.append(i))
                  for i, d in enumerate(delays))
    sim.run()
    assert sim.pending() == 0
    assert sorted(fired) == [i for i, d in enumerate(delays) if d < cancel_at]
    assert sim.events_processed == 1 + len(fired)
