"""Unit tests for congestion-control modules."""

import pytest

from repro.cc.base import StaticWindowCc
from repro.cc.dcqcn import DcqcnCc, DcqcnParams


class TestStaticWindow:
    def test_window_depletes(self):
        cc = StaticWindowCc(window_bytes=10_000)
        assert cc.available_window(0) == 10_000
        assert cc.available_window(9_500) == 500
        assert cc.available_window(10_000) == 0
        assert cc.available_window(20_000) == 0

    def test_no_pacing(self):
        assert StaticWindowCc(1000).pacing_delay_ns(1000) == 0


class TestDcqcn:
    def _cc(self, **over):
        params = DcqcnParams(line_rate=100.0, **over)
        return DcqcnCc(params)

    def test_starts_at_line_rate(self):
        cc = self._cc()
        assert cc.rate == 100.0
        assert cc.pacing_delay_ns(1000) == 0

    def test_cnp_cuts_rate(self):
        cc = self._cc()
        cc.on_cnp(0)
        assert cc.rate < 100.0
        assert cc.target_rate == 100.0

    def test_repeated_cnps_cut_harder(self):
        cc = self._cc()
        cc.on_cnp(0)
        r1 = cc.rate
        cc.on_cnp(1000)
        assert cc.rate < r1

    def test_alpha_rises_with_congestion(self):
        cc = self._cc()
        a0 = cc.alpha
        cc.on_cnp(0)
        assert cc.alpha <= a0  # alpha starts at 1.0, EWMA keeps it high
        for t in range(1, 5):
            cc.on_cnp(t * 1000)
        assert cc.alpha > 0.5

    def test_alpha_decays_without_cnp(self):
        cc = self._cc()
        cc.on_cnp(0)
        alpha_after_cut = cc.alpha
        cc.on_ack(1000, 10 * 55_000)  # many alpha periods later
        assert cc.alpha < alpha_after_cut

    def test_fast_recovery_approaches_target(self):
        cc = self._cc()
        cc.on_cnp(0)
        low = cc.rate
        now = 0
        for i in range(1, 6):
            now += 56_000
            cc.on_ack(20_000, now)
        assert low < cc.rate <= 100.0

    def test_rate_never_exceeds_line(self):
        cc = self._cc()
        now = 0
        for _ in range(100):
            now += 56_000
            cc.on_ack(100_000, now)
        assert cc.rate <= 100.0

    def test_rate_never_below_min(self):
        cc = self._cc(min_rate=1.0)
        for t in range(50):
            cc.on_cnp(t)
        assert cc.rate >= 1.0

    def test_pacing_gap_matches_rate(self):
        cc = self._cc()
        for t in range(10):
            cc.on_cnp(t * 100)
        gap = cc.pacing_delay_ns(1000)
        expected = int(1000 * 8 / cc.rate)
        assert gap == expected

    def test_timeout_halves_rate(self):
        cc = self._cc()
        cc.on_timeout(0)
        assert cc.rate == pytest.approx(50.0)

    def test_window_cap(self):
        cc = DcqcnCc(DcqcnParams(line_rate=100.0, window_bytes=5_000))
        assert cc.available_window(4_000) == 1_000
        assert cc.available_window(6_000) == 0
