"""Unit tests for the discrete-event engine.

Besides the basic contract (time order, FIFO ties, ``until`` and
``max_events`` bounds, cancellation), a property test holds the engine,
reschedules and timer restarts included, to an implementation-free
model: every reschedule or restart is a cancel plus a new schedule, and
the fired order is the sorted order of the surviving keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rnic.base import RestartableTimer
from repro.sim.engine import Simulator


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


def test_call_after_fires_fn_with_its_one_argument_once():
    sim = Simulator()
    calls = []
    payload = object()
    sim.call_after(30, calls.append, payload)
    sim.call_after(10, calls.append, None)
    sim.run()
    assert calls == [None, payload]
    assert calls[1] is payload
    assert sim.events_processed == 2 and len(sim._heap) == 0


def test_timer_entries_fire_without_an_argument():
    """A token-carrying entry calls its callback with no argument, on
    every path that files one: schedule, and a reschedule deferred past
    its heap entry."""
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda *a: seen.append(("schedule", a)))
    token = sim.schedule(20, lambda *a: seen.append(("stale", a)))
    sim.reschedule(token, 40, lambda *a: seen.append(("deferred", a)))
    sim.run()
    assert seen == [("schedule", ()), ("deferred", ())]
    assert sim.now == 40


def test_call_after_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_after(-1, print, None)
    assert len(sim._heap) == 0


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
# entries cancelled by something ordered before them.  A reschedule and
# a timer restart are modelled as exactly that: a cancel of the old key
# plus a newly numbered one.  Half the operations are applied from
# *inside* callbacks, so mid-run insertion, cancellation and restarts
# are exercised too.

# 0 ns ... 2**30 ns; the first arm makes equal-timestamp ties common.
_DELAY = st.one_of(
    st.integers(0, 4),
    st.integers(0, 2**18),
    st.integers(2**18, 2**30),
)

_PICK = st.integers(0, 10**6)

# ("one", delay, also-cancel-some-earlier-token) | ("cancel", pick)
# | ("resched", pick, delay) on a schedule() handle
# | ("restart", pick, delay) | ("stop", pick) on a RestartableTimer
# | ("rearm", pick, delay): that timer restarts itself when it fires
_OP = st.one_of(
    st.tuples(st.just("one"), _DELAY, st.booleans()),
    st.tuples(st.just("cancel"), _PICK),
    st.tuples(st.just("resched"), _PICK, _DELAY),
    st.tuples(st.just("restart"), _PICK, _DELAY),
    st.tuples(st.just("stop"), _PICK),
    st.tuples(st.just("rearm"), _PICK, _DELAY),
)

_TIMERS = 3


def _dead_in_heap(sim):
    return sum(1 for e in sim._heap if e[2] is not None and e[2].cancelled)


def _assert_one_entry_per_token(sim):
    ids = [id(e[2]) for e in sim._heap if e[2] is not None]
    assert len(ids) == len(set(ids))


class _Recorder:
    """Schedules through the public API and keeps the expected order."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.keys = []              # (when, n) of every scheduling call
        self.tokens = []            # (key, token) of the cancellable ones
        self.cancelled_by = {}      # key -> key of the event that cancelled it
        self._running = (-1, 0)     # sorts before every real key
        self.timers = [RestartableTimer(sim, lambda i=i: self._on_timer(i))
                       for i in range(_TIMERS)]
        self.timer_keys = [None] * _TIMERS  # key of each timer's last arm
        self.rearm = [None] * _TIMERS       # delay to restart with on fire

    def _key(self, delay):
        key = (self.sim.now + delay, len(self.keys) + 1)
        self.keys.append(key)
        return key

    def _kill(self, key):
        """Model of cancel(): the key never fires, unless it already has
        (cancelled by itself or by a later-ordered event)."""
        if key is not None:
            self.cancelled_by.setdefault(key, self._running)

    def _fire(self, key, fn=None, arg=None):
        assert self.sim.now == key[0]
        assert self.sim._heap_dead == _dead_in_heap(self.sim)
        self._running = key
        self.fired.append(key)
        if fn is not None:
            fn(arg)

    def _fire_packed(self, payload):
        self._fire(*payload)

    def _on_timer(self, i):
        self._fire(self.timer_keys[i])
        delay, self.rearm[i] = self.rearm[i], None
        if delay is not None:
            self.restart(i, delay)

    def schedule(self, delay):
        key = self._key(delay)
        token = self.sim.schedule(delay, lambda: self._fire(key))
        self.tokens.append((key, token))

    def call_after(self, delay, fn, arg):
        # The engine passes one argument: key, callee and its argument
        # ride packed in a tuple.
        self.sim.call_after(delay, self._fire_packed,
                            (self._key(delay), fn, arg))

    def cancel(self, pick):
        if self.tokens:
            key, token = self.tokens[pick % len(self.tokens)]
            token.cancel()
            self._kill(key)

    def reschedule(self, pick, delay):
        if not self.tokens:
            return
        i = pick % len(self.tokens)
        old, token = self.tokens[i]
        self._kill(old)
        key = self._key(delay)
        # The old handle is consumed: the slot now holds the new event's.
        self.tokens[i] = (key, self.sim.reschedule(
            token, delay, lambda: self._fire(key)))

    def restart(self, i, delay):
        self._kill(self.timer_keys[i])
        self.timer_keys[i] = self._key(delay)
        self.timers[i].restart(delay)

    def stop(self, i):
        self._kill(self.timer_keys[i])
        self.timers[i].cancel()

    def apply(self, op):
        kind = op[0]
        if kind == "one":
            _, delay, cancel_mid = op
            self.schedule(delay)
            if cancel_mid:
                self.cancel(len(self.tokens) // 2)
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "resched":
            self.reschedule(op[1], op[2])
        elif kind == "restart":
            self.restart(op[1] % _TIMERS, op[2])
        elif kind == "stop":
            self.stop(op[1] % _TIMERS)
        else:
            self.rearm[op[1] % _TIMERS] = op[2]

    def expected(self):
        # Cancelled by an earlier-ordered event (or up front): never
        # fires.  Cancelled by itself or by a later event: it had
        # already fired, the late cancel() changes nothing.
        return sorted(k for k in self.keys
                      if self.cancelled_by.get(k, k) >= k)


@settings(deadline=None, max_examples=150)
@given(ops=st.lists(_OP, min_size=1, max_size=30))
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
    assert len(sim._heap) == 0 and sim._heap_dead == 0


@settings(deadline=None, max_examples=150)
@given(ops=st.lists(
    st.one_of(
        _OP,
        st.tuples(st.just("run_until"), _DELAY),
        st.tuples(st.just("run_events"), st.integers(0, 5)),
        st.tuples(st.just("peek")),
        st.tuples(st.just("step")),
    ),
    min_size=1, max_size=40))
def test_dead_count_matches_cancelled_entries_in_heap(ops):
    """White box: ``_heap_dead`` is exactly the number of cancelled
    entries still in ``_heap`` after any interleaving of schedule,
    cancel (before, at and after the entry fired), reschedule, timer
    restarts, partial runs, ``step`` and ``peek_time`` — it is what the
    50 % compaction trigger reads — no token ever owns two entries, and
    a full drain leaves neither dead entries nor a dead count.  The
    fired stream and the event count still follow the cancel-plus-
    schedule model however the drain is cut."""
    sim = Simulator()
    rec = _Recorder(sim)
    for op in ops:
        if op[0] == "run_until":
            sim.run(until=sim.now + op[1])
        elif op[0] == "run_events":
            sim.run(max_events=op[1])
        elif op[0] == "peek":
            head = sim.peek_time()
            live = [k for k in rec.expected() if k not in rec.fired]
            assert head == (live[0][0] if live else None)
        elif op[0] == "step":
            sim.step()
        else:
            rec.apply(op)
        assert sim._heap_dead == _dead_in_heap(sim)
        _assert_one_entry_per_token(sim)
        assert sim.events_processed == len(rec.fired)
    sim.run()
    assert rec.fired == rec.expected()
    assert len(sim._heap) == 0 and sim._heap_dead == 0


def test_timer_churn_keeps_the_heap_bounded():
    """A restart to an earlier deadline leaves a dead entry behind (a
    later one moves its key, see below); compaction at > 50 % dead must
    keep the heap within twice its live entries however long the churn
    lasts (each transport restarts its RTO once per ACK)."""
    sim = Simulator()
    timers = [RestartableTimer(sim, lambda: None) for _ in range(8)]
    live = len(timers) + 1          # + the one in-flight chain event
    restarts = 0
    worst = 0

    def hop(_):
        nonlocal restarts, worst
        for _ in range(5):
            # Deadlines wander up and down: both restart paths run.
            timers[restarts % len(timers)].restart(
                300_000 + (restarts * 7919) % 700_000)
            restarts += 1
            worst = max(worst, len(sim._heap))
        if restarts < 50_000:
            sim.call_after(100, hop, None)

    for timer in timers:
        timer.restart(1_000_000)
    sim.call_after(100, hop, None)
    sim.run()
    assert restarts == 50_000
    assert worst <= 2 * live + 2
    assert len(sim._heap) == 0 and sim._heap_dead == 0


def test_later_deadline_restarts_keep_one_heap_entry():
    """White box: a restart to a later deadline moves the token's key
    and pushes nothing, so an armed timer owns exactly one heap entry
    and leaves no dead one behind.  Every restart still takes a
    sequence number, as the cancel-plus-schedule it stands for would."""
    sim = Simulator()
    fired = []
    timer = RestartableTimer(sim, lambda: fired.append(sim.now))
    timer.restart(1_000)
    seqn = sim._seqn
    for i in range(1_000):
        timer.restart(1_000 + i)
        assert len(sim._heap) == 1 and sim._heap_dead == 0
    assert sim._seqn == seqn + 1_000
    assert sim.peek_time() == 1_999
    sim.run()
    assert fired == [1_999]
    assert sim.events_processed == 1
    assert len(sim._heap) == 0 and sim._heap_dead == 0


def test_run_until_between_a_deferred_entry_and_its_recorded_time():
    """The deferred entry surfaces at its old time inside the window; it
    is re-filed, neither fired nor counted, and fires at its new key
    after the events scheduled before the reschedule for that instant."""
    sim = Simulator()
    fired = []
    token = sim.schedule(100, lambda: fired.append(("moved", sim.now)))
    sim.schedule(300, lambda: fired.append(("first", sim.now)))
    token = sim.reschedule(token, 300, lambda: fired.append(("moved", sim.now)))
    sim.schedule(300, lambda: fired.append(("last", sim.now)))
    assert len(sim._heap) == 3
    sim.run(until=200)
    assert fired == [] and sim.now == 200 and sim.events_processed == 0
    assert len(sim._heap) == 3 and sim._heap_dead == 0
    sim.run()
    assert fired == [("first", 300), ("moved", 300), ("last", 300)]
    assert sim.events_processed == 3


def test_reschedule_to_an_earlier_time_cancels_and_schedules():
    sim = Simulator()
    fired = []
    old = sim.schedule(500, lambda: fired.append("old"))
    new = sim.reschedule(old, 200, lambda: fired.append("new"))
    assert new is not old and old.cancelled
    assert len(sim._heap) == 2 and sim._heap_dead == 1
    sim.run()
    assert fired == ["new"] and sim.now == 200
    assert sim.events_processed == 1


def test_run_until_earlier_than_now_is_rejected():
    """Regression: ``run(until=T)`` with ``T < now`` used to set the
    clock back to T, so an event scheduled next fired before one that
    had already run."""
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    sim.schedule(100, lambda: None)
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 10
    sim.run(until=10)
    assert sim.now == 10 and sim.events_processed == 1


def test_run_until_skips_a_cancelled_head_and_keeps_the_live_tail():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: None).cancel()
    sim.schedule(200, lambda: fired.append(("first", sim.now)))
    sim.schedule(200, lambda: fired.append(("second", sim.now)))
    sim.run(until=100)
    assert fired == [] and sim.now == 100
    assert sim.events_processed == 0
    assert len(sim._heap) == 2 and sim._heap_dead == 0
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
    assert len(sim._heap) == 0
    assert sorted(fired) == [i for i, d in enumerate(delays) if d < cancel_at]
    assert sim.events_processed == 1 + len(fired)
