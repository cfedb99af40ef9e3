"""Unit tests for the Poisson and incast workload generators.

A workload's ``schedule`` is a pure list of ``(src, dst, size_bytes,
start_ns)`` rows, so no network is built here.
"""

import pytest

from repro.workload.distributions import websearch
from repro.workload.flows import IncastWorkload, PoissonWorkload


def rows_of(wl):
    """``wl``'s schedule on 8 hosts at 10 Gbps."""
    return wl.schedule(8, 10.0)


class TestPoisson:
    def test_generates_flows_within_horizon(self):
        wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=10),
                             duration_ns=1_000_000, seed=5)
        rows = rows_of(wl)
        assert rows
        assert all(0 <= start < 1_000_000 for _s, _d, _b, start in rows)
        assert all(src != dst for src, dst, *_ in rows)

    def test_load_controls_arrival_rate(self):
        lo = rows_of(PoissonWorkload(load=0.1, size_dist=websearch(scale=10),
                                     duration_ns=3_000_000, seed=5))
        hi = rows_of(PoissonWorkload(load=0.5, size_dist=websearch(scale=10),
                                     duration_ns=3_000_000, seed=5))
        assert len(hi) > 2 * len(lo)

    def test_offered_load_approximates_target(self):
        wl = PoissonWorkload(load=0.4, size_dist=websearch(scale=10),
                             duration_ns=20_000_000, seed=6)
        offered_bits = sum(size for _s, _d, size, *_ in rows_of(wl)) * 8
        capacity_bits = 8 * 10.0 * 20_000_000  # hosts x rate x time
        assert offered_bits / capacity_bits == pytest.approx(0.4, rel=0.35)

    def test_max_flows_cap(self):
        wl = PoissonWorkload(load=0.5, size_dist=websearch(scale=10),
                             duration_ns=50_000_000, seed=5, max_flows=25)
        assert len(rows_of(wl)) == 25

    def test_host_subset(self):
        wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=10),
                             duration_ns=1_000_000, seed=5, hosts=[0, 1, 2])
        rows = rows_of(wl)
        assert all(src in (0, 1, 2) and dst in (0, 1, 2)
                   for src, dst, *_ in rows)

    def test_same_seed_same_flows(self):
        def gen():
            wl = PoissonWorkload(load=0.3, size_dist=websearch(scale=10),
                                 duration_ns=1_000_000, seed=9)
            return rows_of(wl)

        assert gen() == gen()

    def test_load_validation(self):
        with pytest.raises(ValueError):
            rows_of(PoissonWorkload(load=0.0, size_dist=websearch(),
                                    duration_ns=1000))
        with pytest.raises(ValueError):
            rows_of(PoissonWorkload(load=1.5, size_dist=websearch(),
                                    duration_ns=1000))


class TestIncast:
    def test_events_have_fan_in_senders(self):
        wl = IncastWorkload(load=0.2, fan_in=5, flow_bytes=10_000,
                            duration_ns=2_000_000, seed=5)
        rows = rows_of(wl)
        assert rows
        assert len(rows) % 5 == 0
        by_event = {}
        for src, dst, _size, start in rows:
            by_event.setdefault((start, dst), set()).add(src)
        for (start, dst), senders in by_event.items():
            assert len(senders) == 5
            assert dst not in senders

    def test_fan_in_validation(self):
        with pytest.raises(ValueError):
            rows_of(IncastWorkload(load=0.1, fan_in=8, flow_bytes=1000,
                                   duration_ns=1000))

    def test_flows_are_fixed_size(self):
        wl = IncastWorkload(load=0.2, fan_in=3, flow_bytes=12_345,
                            duration_ns=2_000_000, seed=5)
        rows = rows_of(wl)
        assert all(size == 12_345 for _s, _d, size, _t0 in rows)
