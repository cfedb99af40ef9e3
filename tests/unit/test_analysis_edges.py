"""Edge cases for the analysis helpers: degenerate flows, extreme RTTs.

The fidelity tier leans on :mod:`repro.analysis.fct` and
:mod:`repro.analysis.models` for its conformance checks, so the
degenerate inputs those checks can produce — zero-length flows,
sub-MTU probes, cross-DC propagation delays from the longhaul
experiment's distances — must have defined behavior rather than
accidental crashes.
"""

import math

import pytest

from repro.analysis.fct import (goodput_gbps, jain_fairness,
                                overall_percentiles, percentile,
                                slowdown_bins)
from repro.analysis.models import (ASIC_CATALOG, lossless_distance_km,
                                   theoretical_packet_rate_mpps,
                                   tracking_memory_bytes)
from repro.experiments.common import build_network
from repro.experiments.longhaul import DISTANCES_KM
from repro.rnic.base import Flow
from repro.sim.units import fiber_delay_ns


def _flow(size, fct_ns):
    f = Flow(0, 1, size, start_ns=0)
    f.rx_bytes = size
    f.rx_complete_ns = fct_ns
    return f


class TestZeroLengthFlows:
    def test_goodput_is_zero_not_an_error(self):
        assert goodput_gbps(_flow(0, 1_000)) == 0.0

    def test_slowdown_bins_accept_zero_size(self):
        # A zero-byte flow has no meaningful size bin; it must land in
        # *some* bin deterministically, not raise on log(0).
        stats = slowdown_bins([(0, 1.0)])
        assert sum(b.count for b in stats) == 1

    def test_empty_inputs(self):
        assert math.isnan(overall_percentiles([])["p50"])
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_jain_fairness_all_zero_rates(self):
        # Zero goodput everywhere is vacuously fair, not a 0/0.
        assert jain_fairness([0.0, 0.0, 0.0]) == 1.0


class TestSubMtuFlows:
    def test_single_probe_percentiles_collapse(self):
        stats = slowdown_bins([(64, 1.5)])
        (b,) = stats
        assert b.count == 1
        assert b.p50 == b.p95 == b.p99 == 1.5

    def test_sub_mtu_sizes_share_the_smallest_bin(self):
        pairs = [(s, 1.0) for s in (1, 64, 512, 1000)]
        stats = slowdown_bins(pairs)
        assert len(stats) == 1
        assert stats[0].count == len(pairs)

    def test_one_packet_goodput(self):
        # 64 B in 2 us = 0.256 Gbps; tiny but well-defined.
        assert goodput_gbps(_flow(64, 2_000)) == pytest.approx(0.256)


class TestCrossDcRtts:
    """Extreme propagation delays from the longhaul distance grid."""

    def test_fiber_delay_matches_paper_constant(self):
        # §2.1: 5 us per km, so the 10 km longhaul hop is 50 us.
        assert fiber_delay_ns(10.0) == 50_000
        delays = [fiber_delay_ns(km) for km in DISTANCES_KM]
        assert delays == sorted(delays)

    @pytest.mark.parametrize("km", DISTANCES_KM)
    def test_hybrid_exact_over_longhaul_path(self, km):
        """The fluid timeline models one-way delay explicitly, so the
        exactness guarantee must hold at cross-DC RTTs too."""
        fcts = {}
        for fidelity in ("packet", "hybrid"):
            net = build_network(
                transport="dcp", topology="testbed", num_hosts=4,
                cross_links=1, link_rate=25.0, lb="ecmp", seed=31,
                spine_link_delay_ns=fiber_delay_ns(km), fidelity=fidelity)
            flow = net.open_flow(0, 2, 100_000, 0)
            net.run_until_flows_done(max_events=50_000_000)
            assert flow.completed
            fcts[fidelity] = flow.fct_ns()
        assert fcts["hybrid"] == fcts["packet"]

    def test_slowdown_well_defined_at_50us_rtt(self):
        net = build_network(
            transport="dcp", topology="testbed", num_hosts=4, cross_links=1,
            link_rate=25.0, lb="ecmp", seed=31,
            spine_link_delay_ns=fiber_delay_ns(10.0))
        flow = net.open_flow(0, 2, 100_000, 0)
        net.run_until_flows_done(max_events=50_000_000)
        ((f, sd),) = net.slowdowns()
        assert f is flow
        assert sd >= 1.0
        # Propagation dominates: goodput is far below line rate but > 0.
        assert 0 < goodput_gbps(flow) < 25.0


class TestModelEdges:
    def test_lossless_distance_scales_inversely_with_queues(self):
        asic = ASIC_CATALOG[0]
        base = lossless_distance_km(asic, queues=1)
        assert lossless_distance_km(asic, queues=8) == pytest.approx(base / 8)
        with pytest.raises(ValueError):
            lossless_distance_km(asic, queues=0)

    def test_tracking_memory_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            tracking_memory_bytes("lossy")

    def test_dcp_tracking_memory_independent_of_bdp(self):
        small = tracking_memory_bytes("dcp", bdp_pkts=256)
        huge = tracking_memory_bytes("dcp", bdp_pkts=1_000_000)
        assert small == huge

    def test_linked_chunk_never_exceeds_bitmap(self):
        bdp = 2560
        _lo, hi = tracking_memory_bytes("linked_chunk", bdp_pkts=bdp)
        assert hi <= bdp // 8

    def test_packet_rate_flat_for_constant_cost_schemes(self):
        for scheme in ("bdp", "dcp"):
            rates = {theoretical_packet_rate_mpps(scheme, d)
                     for d in (0, 128, 2560)}
            assert len(rates) == 1
        lc = [theoretical_packet_rate_mpps("linked_chunk", d)
              for d in (0, 128, 2560)]
        assert lc == sorted(lc, reverse=True)
