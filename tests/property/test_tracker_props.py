"""Property-based tests: DCP's counter tracker against an oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracking import CounterTracker


@given(st.data())
def test_counter_tracker_message_completion_oracle(data):
    """Counting completes a message exactly when all packets arrived,
    for any arrival interleaving (exactly-once assumption held)."""
    num_msgs = data.draw(st.integers(1, 5))
    sizes = [data.draw(st.integers(1, 8)) for _ in range(num_msgs)]
    arrivals = [(m, p) for m, size in enumerate(sizes) for p in range(size)]
    order = data.draw(st.permutations(arrivals))
    tracker = CounterTracker()
    seen: dict[int, int] = {}
    completed: set[int] = set()
    for msn, _p in order:
        done = tracker.record(msn, sizes[msn], sretry_no=0)
        seen[msn] = seen.get(msn, 0) + 1
        if done:
            assert seen[msn] == sizes[msn]
            completed.add(msn)
    assert completed == set(range(num_msgs))
    emsn, cqes = tracker.advance_emsn()
    assert emsn == num_msgs
    assert cqes == sorted(cqes)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_counter_tracker_retry_rounds_monotone(retries):
    """rRetryNo only moves forward; stale rounds never count."""
    tracker = CounterTracker()
    best = 0
    for r in retries:
        tracker.record(0, expected_pkts=100, sretry_no=r)
        best = max(best, r)
        assert tracker.tracks[0].rretry_no == best


@given(st.integers(1, 14))
def test_counter_width_matches_bits(bits):
    """A 14-bit counter covers the MB-scale messages of §4.5."""
    max_pkts = 2 ** bits - 1
    tracker = CounterTracker()
    for _ in range(max_pkts - 1):
        assert not tracker.record(0, max_pkts, 0)
    assert tracker.record(0, max_pkts, 0)
