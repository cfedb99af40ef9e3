"""Property-based tests for span recording and FCT attribution.

Two families:

* tracker invariants — whatever order packets arrive / ports pause /
  timers fire in, every recorded span satisfies ``start <= end`` and
  the hole-tracking state never emits a reorder span before the hole
  opened;
* partition invariants — :func:`flow_breakdown` is an exact partition
  of the flow window for *arbitrary* span soups: components are
  non-negative, sum exactly to the FCT, and respect the attribution
  priority (an instant covered by a pause never counts as queue time).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import (COMPONENTS, KIND_TO_COMPONENT, PRIORITY,
                                    flow_breakdown)
from repro.obs.spans import SPAN_KINDS, SpanTracker

WINDOW = 1_000_000

span_rows = st.lists(
    st.tuples(st.integers(-1000, WINDOW + 1000),      # start (may stick out)
              st.integers(0, WINDOW // 4),            # duration
              st.sampled_from(SPAN_KINDS),
              st.sampled_from([-1, 1, 2])),           # flow id
    max_size=60).map(
    lambda rows: [(s, s + d, kind, fid, -1, "x")
                  for s, d, kind, fid in rows])


@given(span_rows)
def test_breakdown_is_exact_nonnegative_partition(rows):
    b = flow_breakdown(rows, 1, 0, WINDOW)
    assert all(b[c] >= 0 for c in COMPONENTS)
    assert sum(b[c] for c in COMPONENTS) == b["fct_ns"] == WINDOW
    assert b["residual_ns"] == 0


@given(span_rows)
def test_breakdown_components_bounded_by_window(rows):
    b = flow_breakdown(rows, 1, 0, WINDOW)
    for c in COMPONENTS:
        assert b[c] <= WINDOW


@given(span_rows, st.integers(0, 5))
def test_breakdown_priority_no_lower_kind_leaks_through(rows, k):
    """Blanket the whole window with priority-k spans: every weaker
    kind must attribute zero (the stronger kind claims each instant)."""
    kind = PRIORITY[k]
    fid = -1 if kind == "pause" else 1
    covered = rows + [(0, WINDOW, kind, fid, -1, "blanket")]
    b = flow_breakdown(covered, 1, 0, WINDOW)
    stronger = {KIND_TO_COMPONENT[p] for p in PRIORITY[:k]}
    weaker = [KIND_TO_COMPONENT[p] for p in PRIORITY[k + 1:]] + ["host_ns"]
    assert all(b[c] == 0 for c in weaker)
    assert b[KIND_TO_COMPONENT[kind]] == WINDOW - sum(
        b[c] for c in stronger)


@given(st.lists(st.tuples(st.integers(0, 30),        # psn
                          st.integers(0, 10_000)),   # arrival time offset
                min_size=1, max_size=80))
def test_tracker_spans_well_formed_under_any_arrival_order(arrivals):
    t = SpanTracker()
    t.note_flow(1, 0)
    now = 0
    for psn, dt in arrivals:
        now += dt
        t.data_arrival(1, psn, now, "r")
    for start, end, kind, fid, _uid, _actor in t.spans:
        assert start <= end
        assert kind == "reorder"
        assert fid == 1
        assert 0 <= start and end <= now


@given(st.lists(st.tuples(st.sampled_from(["pause", "resume", "step"]),
                          st.integers(1, 100)), max_size=60))
@settings(max_examples=60)
def test_pause_spans_never_invert(ops):
    t = SpanTracker()
    now = 0
    for op, dt in ops:
        now += dt
        if op == "pause":
            t.pause("nic0", now)
        elif op == "resume":
            t.resume("nic0", now)
    t.finalize(now + 1)
    for start, end, kind, *_ in t.spans:
        assert kind == "pause"
        assert start < end <= now + 1


@given(st.lists(st.integers(1, 50_000), min_size=1, max_size=30))
def test_timeout_stalls_chain_without_overlap(gaps):
    """Consecutive timeouts partition the silence: each stall span
    starts where the previous one ended, so no instant double-counts."""
    t = SpanTracker()
    t.note_flow(7, 0)
    now = 0
    for gap in gaps:
        now += gap
        t.timeout(7, now, "rnic7", {})
    stalls = [s for s in t.spans if s[2] == "retx_stall"]
    assert len(stalls) == len(gaps)
    prev_end = 0
    for start, end, *_ in stalls:
        assert start == prev_end
        assert start < end
        prev_end = end
    assert prev_end == now
