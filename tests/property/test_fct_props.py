"""Property-based tests for the statistics helpers."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.fct import percentile, slowdown_bins

finite_floats = st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=1, max_size=500),
       st.floats(0, 100))
def test_percentile_within_range(values, p):
    result = percentile(values, p)
    assert min(values) <= result <= max(values)


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_percentile_monotone_in_p(values):
    ps = [0, 25, 50, 75, 95, 99, 100]
    results = [percentile(values, p) for p in ps]
    assert results == sorted(results)


@given(st.lists(finite_floats, min_size=1, max_size=200),
       finite_floats)
def test_percentile_translation_invariance(values, shift):
    assume(shift < 1e6)
    shifted = [v + shift for v in values]
    base = percentile(values, 90)
    moved = percentile(shifted, 90)
    assert abs(moved - (base + shift)) < 1e-6 * max(1.0, base + shift)


@given(st.lists(st.tuples(st.integers(1_000, 30_000_000),
                          st.floats(1.0, 100.0)),
                min_size=1, max_size=200))
def test_slowdown_bins_conserve_flows(pairs):
    bins = slowdown_bins(pairs)
    assert sum(b.count for b in bins) == len(pairs)
    for b in bins:
        assert b.p50 <= b.p95 <= b.p99
