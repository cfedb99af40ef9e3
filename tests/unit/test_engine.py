"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rnic.base import RestartableTimer
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
        # silently lost.
        sim.schedule(50_000_000, lambda: fired.append((sim.now, "final")))

    sim.schedule(1_000, sabotage)
    sim.run()

    times = [t for t, _ in fired]
    assert times == sorted(times), "simulated time went backwards"
    assert [i for _, i in fired[:40]] == list(range(40))
    assert fired[-2] == (100_001_000, "late")
    assert fired[-1] == (150_001_000, "final"), "post-compaction event lost"
    assert sim.events_processed == 1 + 40 + 1 + 1


# ------------------------------------------ fired order == sorted keys
#
# The engine *is* one heap, so a heap-based reference would only copy
# it.  The oracle here is implementation-independent: the test numbers
# every scheduling call itself and records ``(when, n)`` for it; the
# fired list must equal ``sorted()`` of the recorded keys, minus the
# entries cancelled by something ordered before them.  Half the
# operations are applied from *inside* callbacks, so mid-run insertion
# and mid-run cancellation are exercised too.

# 0 ns ... 2**30 ns; the first arm makes equal-timestamp ties common.
_DELAY = st.one_of(
    st.integers(0, 4),
    st.integers(0, 2**18),
    st.integers(2**18, 2**30),
)

# ("one", delay, also-cancel-some-earlier-token) | ("cancel", pick)
_SCHEDULE_OR_CANCEL = st.one_of(
    st.tuples(st.just("one"), _DELAY, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
)


def _dead_in_heap(sim):
    return sum(1 for e in sim._heap if e[2] is not None and e[2].cancelled)


class _Recorder:
    """Schedules through the public API and keeps the expected order."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.keys = []              # (when, n) of every scheduling call
        self.tokens = []            # (key, token) of the cancellable ones
        self.cancelled_by = {}      # key -> key of the event that cancelled it
        self._running = (-1, 0)     # sorts before every real key

    def _key(self, delay):
        key = (self.sim.now + delay, len(self.keys) + 1)
        self.keys.append(key)
        return key

    def _fire(self, key, fn=None, args=()):
        assert self.sim.now == key[0]
        assert self.sim._heap_dead == _dead_in_heap(self.sim)
        self._running = key
        self.fired.append(key)
        if fn is not None:
            fn(*args)

    def schedule(self, delay):
        key = self._key(delay)
        token = self.sim.schedule(delay, lambda: self._fire(key))
        self.tokens.append((key, token))

    def call_after(self, delay, fn, *args):
        self.sim.call_after(delay, self._fire, self._key(delay), fn, args)

    def cancel(self, pick):
        if self.tokens:
            key, token = self.tokens[pick % len(self.tokens)]
            token.cancel()
            self.cancelled_by.setdefault(key, self._running)

    def apply(self, op):
        if op[0] == "one":
            _, delay, cancel_mid = op
            self.schedule(delay)
            if cancel_mid:
                self.cancel(len(self.tokens) // 2)
        else:
            self.cancel(op[1])

    def expected(self):
        # Cancelled by an earlier-ordered event (or up front): never
        # fires.  Cancelled by itself or by a later event: it had
        # already fired, the late cancel() changes nothing.
        return sorted(k for k in self.keys
                      if self.cancelled_by.get(k, k) >= k)


@settings(deadline=None, max_examples=60)
@given(ops=st.lists(_SCHEDULE_OR_CANCEL, min_size=1, max_size=30))
def test_fired_stream_is_the_sorted_when_seq_order(ops):
    sim = Simulator()
    rec = _Recorder(sim)
    # Half up front, half from inside callbacks at staggered times, so
    # insertion happens both before and during the drain.
    for op in ops[::2]:
        rec.apply(op)
    for i, op in enumerate(ops[1::2]):
        rec.call_after(1 + i * 700, rec.apply, op)
    sim.run()
    expected = rec.expected()
    assert rec.fired == expected
    assert sim.events_processed == len(expected)
    assert sim.now == (expected[-1][0] if expected else 0)
    assert sim.pending() == 0 and sim._heap_dead == 0


@settings(deadline=None, max_examples=60)
@given(ops=st.lists(
    st.one_of(
        _SCHEDULE_OR_CANCEL,
        st.tuples(st.just("run_until"), _DELAY),
        st.tuples(st.just("run_events"), st.integers(0, 5)),
        st.tuples(st.just("peek")),
    ),
    min_size=1, max_size=40))
def test_dead_count_matches_cancelled_entries_in_heap(ops):
    """White box: ``_heap_dead`` is exactly the number of cancelled
    entries still in ``_heap`` after any interleaving of schedule,
    cancel (before, at and after the entry fired), partial runs and
    ``peek_time`` — it is what the 50 % compaction trigger reads — and
    a full drain leaves neither dead entries nor a dead count."""
    sim = Simulator()
    rec = _Recorder(sim)
    for op in ops:
        if op[0] == "run_until":
            sim.run(until=sim.now + op[1])
        elif op[0] == "run_events":
            sim.run(max_events=op[1])
        elif op[0] == "peek":
            sim.peek_time()
        else:
            rec.apply(op)
        assert sim._heap_dead == _dead_in_heap(sim)
    sim.run()
    assert rec.fired == rec.expected()
    assert sim.pending() == 0 and sim._heap_dead == 0


def test_timer_churn_keeps_the_heap_bounded():
    """Every ``restart()`` leaves a dead entry behind; compaction at
    > 50 % dead must keep the heap within twice its live entries
    however long the churn lasts (each transport restarts its RTO once
    per ACK)."""
    sim = Simulator()
    timers = [RestartableTimer(sim, lambda: None) for _ in range(8)]
    live = len(timers) + 1          # + the one in-flight chain event
    restarts = 0
    worst = 0

    def hop():
        nonlocal restarts, worst
        for _ in range(5):
            timers[restarts % len(timers)].restart(1_000_000 + restarts)
            restarts += 1
            worst = max(worst, sim.pending())
        if restarts < 50_000:
            sim.call_after(100, hop)

    for timer in timers:
        timer.restart(1_000_000)
    sim.call_after(100, hop)
    sim.run()
    assert restarts == 50_000
    assert worst <= 2 * live + 2
    assert sim.pending() == 0 and sim._heap_dead == 0


def test_run_until_skips_a_cancelled_head_and_keeps_the_live_tail():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: None).cancel()
    sim.schedule(200, lambda: fired.append(("first", sim.now)))
    sim.schedule(200, lambda: fired.append(("second", sim.now)))
    sim.run(until=100)
    assert fired == [] and sim.now == 100
    assert sim.events_processed == 0
    assert sim.pending() == 2 and sim._heap_dead == 0
    # Scheduled later for the same instant: fires after both.
    sim.schedule(100, lambda: fired.append(("third", sim.now)))
    sim.run()
    assert fired == [("first", 200), ("second", 200), ("third", 200)]
    assert sim.events_processed == 3


@settings(deadline=None, max_examples=100)
@given(delays=st.lists(_DELAY, min_size=2, max_size=16),
       cancel_at=_DELAY)
def test_cancelled_entries_do_not_fire_or_count(delays, cancel_at):
    """Entries whose token is cancelled mid-run are skipped when due
    without counting toward ``events_processed``.  ``RestartableTimer`` cancels and re-arms once
    per ACK, so a counted skip would make the event count depend on how
    many timers were superseded."""
    sim = Simulator()
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
