"""Unit tests for the discrete-event engine."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import CancelledToken, Entity, Simulator


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


# ------------------------------------ engine == single-heap reference
#
# The property: for arbitrary interleavings of schedule / cancel
# operations whose delays span all three timer tiers (wheel
# L0 < 2**18 ns, wheel L1 < 2**24 ns, heap beyond the horizon), the
# engine fires the exact same (when, tag) sequence, with the same
# events_processed accounting, as one heapq ordered by (when, seq).
# Half the operations are applied from *inside* callbacks, so mid-run
# insertion (including behind the ring position) and mid-run
# cancellation are exercised too.

class _HeapScheduler:
    """The differential oracle: one ``(when, seq)`` heap, nothing else."""

    def __init__(self):
        self.now = self.events_processed = self._seq = 0
        self._heap = []

    def schedule(self, delay, callback):
        return self._push(delay, CancelledToken(), callback, ())

    def call_after(self, delay, fn, *args):
        self._push(delay, None, fn, args)

    def _push(self, delay, token, fn, args):
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.now + delay, self._seq, token, fn, args))
        return token

    def pending(self):
        return len(self._heap)

    def run(self):
        while self._heap:
            when, _, token, fn, args = heapq.heappop(self._heap)
            if token is not None and token.cancelled:
                continue        # skipped uncounted
            self.now = when
            self.events_processed += 1
            fn(*args)


_TIERED_DELAY = st.one_of(
    st.integers(0, 2**18),            # wheel level 0 span
    st.integers(2**18, 2**24 - 1),    # wheel level 1 span
    st.integers(2**24, 2**30),        # beyond the horizon: heap
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _TIERED_DELAY, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 10**6), st.just(False)),
    ),
    min_size=1, max_size=30)


def _drive(sim, ops):
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


@settings(deadline=None, max_examples=60)
@given(ops=_OPS)
def test_engine_pops_like_a_single_heap(ops):
    assert _drive(Simulator(), ops) == _drive(_HeapScheduler(), ops)


@settings(deadline=None, max_examples=100)
@given(delays=st.lists(_TIERED_DELAY, min_size=2, max_size=16),
       cancel_at=_TIERED_DELAY)
def test_cancelled_entries_do_not_fire_or_count(delays, cancel_at):
    """Entries whose token is cancelled mid-run are skipped when due —
    in the wheel and in the heap alike — without counting toward
    ``events_processed``.  ``RestartableTimer`` cancels and re-arms once
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
