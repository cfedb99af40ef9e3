"""Property-based tests for the event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=200))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), min_size=1,
                max_size=100))
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    tokens = []
    for delay, cancel in entries:
        token = sim.schedule(delay, lambda i=len(tokens): fired.append(i))
        tokens.append((token, cancel))
    for token, cancel in tokens:
        if cancel:
            token.cancel()
    sim.run()
    expected = {i for i, (_t, cancel) in enumerate(tokens) if not cancel}
    assert set(fired) == expected


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=100),
       st.integers(0, 10**6))
def test_run_until_partitions_execution(delays, split):
    """Running to t then to the end equals running straight through."""
    def collect(two_phase: bool):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        if two_phase:
            sim.run(until=split)
            sim.run()
        else:
            sim.run()
        return fired

    assert collect(True) == collect(False)


# ---------------------------------------------- run(until=...) semantics
@given(st.lists(st.integers(0, 10**6), min_size=0, max_size=100),
       st.integers(0, 10**6))
def test_run_until_clock_lands_exactly_on_until(delays, until):
    """After ``run(until=t)`` the clock reads exactly ``t`` — whether the
    heap drained early, events remain beyond ``t``, or no events existed
    at all — and exactly the events with ``time <= t`` have fired."""
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=until)
    assert sim.now == until
    assert sorted(fired) == sorted(d for d in delays if d <= until)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
def test_run_until_boundary_events_fire(delays):
    """Events scheduled exactly at ``until`` execute (closed interval)."""
    sim = Simulator()
    boundary = max(delays)
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run(until=boundary)
    assert len(fired) == len(delays)


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
def test_run_until_monotone_resumption(delays, cuts):
    """Any monotone sequence of run(until=...) cuts yields the same
    firing order as one uninterrupted run, and the clock never regresses."""
    def fire_all():
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run()
        return fired

    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    clock_readings = []
    for cut in sorted(cuts):
        sim.run(until=cut)
        clock_readings.append(sim.now)
    sim.run()
    assert fired == fire_all()
    assert clock_readings == sorted(clock_readings)


# ------------------------------------------- lazy CancelledToken behaviour
@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), min_size=1,
                max_size=60))
def test_cancellation_is_lazy_entries_stay_in_heap(entries):
    """cancel() must not eagerly remove heap entries (that would turn an
    O(log n) cancel into O(n)); cancelled entries linger in ``pending``
    until their pop, yet ``events_processed`` counts only real firings."""
    sim = Simulator()
    tokens = []
    for delay, _cancel in entries:
        tokens.append(sim.schedule(delay, lambda: None))
    cancelled = 0
    for token, (_delay, cancel) in zip(tokens, entries):
        if cancel:
            token.cancel()
            cancelled += 1
    # Lazy: the heap still holds every entry, cancelled or not.
    assert len(sim._heap) == len(entries)
    sim.run()
    assert len(sim._heap) == 0
    assert sim.events_processed == len(entries) - cancelled


@given(st.lists(st.integers(0, 1000), min_size=2, max_size=40),
       st.data())
def test_cancel_from_within_an_event_suppresses_later_events(delays, data):
    """A callback may cancel any not-yet-fired event, including one at
    its own timestamp scheduled after it (FIFO makes 'after' well
    defined)."""
    sim = Simulator()
    delays = sorted(delays)
    tokens = []
    fired = []
    canceller_idx = data.draw(st.integers(0, len(delays) - 2))
    victim_idx = data.draw(st.integers(canceller_idx + 1, len(delays) - 1))

    def make_cb(i):
        def cb():
            fired.append(i)
            if i == canceller_idx:
                tokens[victim_idx].cancel()
        return cb

    for i, d in enumerate(delays):
        tokens.append(sim.schedule(d, make_cb(i)))
    sim.run()
    assert victim_idx not in fired
    assert fired == [i for i in range(len(delays)) if i != victim_idx]


@given(st.integers(0, 1000))
def test_peek_time_skips_cancelled_heads(delay):
    sim = Simulator()
    early = sim.schedule(delay, lambda: None)
    sim.schedule(delay + 7, lambda: None)
    early.cancel()
    assert sim.peek_time() == delay + 7


# --------------------------------------- FIFO order at equal timestamps
@given(st.integers(1, 60), st.integers(0, 10**6))
def test_same_timestamp_events_fire_in_fifo_order(n, when):
    """Equal-time events fire in scheduling order (the heap's sequence
    number breaks ties) — transports rely on this for ACK-before-data
    causality at a shared timestamp."""
    sim = Simulator()
    fired = []
    for i in range(n):
        sim.schedule(when, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(n))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=80))
def test_fifo_tiebreak_composes_with_time_order(delays):
    """Across mixed timestamps: sort by (time, scheduling index) exactly."""
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.schedule(d, lambda i=i: fired.append(i))
    sim.run()
    expected = [i for _d, i in sorted((d, i) for i, d in enumerate(delays))]
    assert fired == expected


@given(st.integers(1, 40), st.integers(0, 1000))
def test_fifo_holds_for_events_scheduled_mid_run(n, when):
    """Zero-delay events scheduled from inside a callback run after
    already-queued events at the same timestamp, still FIFO."""
    sim = Simulator()
    fired = []

    def spawn():
        for i in range(n):
            sim.schedule(0, lambda i=i: fired.append(("child", i)))

    sim.schedule(when, spawn)
    for i in range(n):
        sim.schedule(when, lambda i=i: fired.append(("sibling", i)))
    sim.run()
    assert fired == ([("sibling", i) for i in range(n)]
                     + [("child", i) for i in range(n)])


@given(st.integers(1, 50))
def test_chained_events_preserve_causality(n):
    sim = Simulator()
    seen = []

    def step(i):
        seen.append(i)
        if i < n:
            sim.schedule(10, lambda: step(i + 1))

    sim.schedule(0, lambda: step(1))
    sim.run()
    assert seen == list(range(1, n + 1))
    assert sim.now == (n - 1) * 10
