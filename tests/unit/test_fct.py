"""Unit tests for FCT/goodput statistics helpers."""

import pytest

from repro.analysis.fct import (goodput_gbps, overall_percentiles,
                                percentile, slowdown_bins)
from repro.rnic.base import Flow


def _flow(size, fct_ns):
    f = Flow(0, 1, size, start_ns=0)
    f.rx_bytes = size
    f.rx_complete_ns = fct_ns
    return f


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        vals = [3, 1, 4, 1, 5]
        assert percentile(vals, 0) == 1
        assert percentile(vals, 100) == 5

    def test_single_value(self):
        assert percentile([7], 99) == 7

    def test_unsorted_input(self):
        assert percentile([9, 1, 5], 50) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSlowdownBins:
    def test_bins_group_by_nearest_size(self):
        pairs = [(3_000, 1.5), (3_100, 2.5), (29_995_000, 4.0)]
        bins = slowdown_bins(pairs)
        by = {b.bin_kb: b for b in bins}
        assert by[3].count == 2
        assert by[3].p50 == 2.0
        assert by[29995].count == 1

    def test_scale_maps_back_to_nominal_bins(self):
        # a 300 B flow at scale 10 represents a nominal 3 KB flow
        bins = slowdown_bins([(300, 1.0)], scale=10.0)
        assert bins[0].bin_kb == 3

    def test_percentiles_computed(self):
        pairs = [(3_000, float(i)) for i in range(1, 101)]
        b = slowdown_bins(pairs)[0]
        assert b.p50 == pytest.approx(50.5)
        assert b.p99 == pytest.approx(99.01)


class TestOverall:
    def test_overall(self):
        pairs = [(1000, float(i)) for i in range(1, 11)]
        stats = overall_percentiles(pairs)
        assert stats["p50"] == pytest.approx(5.5)
        assert stats["mean"] == pytest.approx(5.5)

    def test_empty(self):
        stats = overall_percentiles([])
        assert stats["p50"] != stats["p50"]  # NaN


class TestGoodput:
    def test_goodput(self):
        # 1 MB in 1 ms = 8 Gbps
        f = _flow(1_000_000, 1_000_000)
        assert goodput_gbps(f) == pytest.approx(8.0)

    def test_incomplete_flow_raises(self):
        f = Flow(0, 1, 100, 0)
        with pytest.raises(ValueError):
            goodput_gbps(f)
