"""Unit tests for the Table 4 resource inventory model."""

import pytest

from repro.analysis.resources import ResourceEstimate, estimate, table4_rows


def test_dcp_delta_is_small():
    """The Table 4 claim: DCP adds only ~1-2% over RNIC-GBN."""
    rows = {r["scheme"]: r for r in table4_rows()}
    assert 0.0 < rows["dcp"]["logic_delta_vs_gbn"] <= 0.03
    assert 0.0 < rows["dcp"]["nic_delta_vs_gbn"] <= 0.03


def test_bitmap_designs_cost_more_sram():
    gbn = estimate("gbn")
    irn = estimate("irn")
    dcp = estimate("dcp")
    rack = estimate("rack_tlp")
    assert irn.qp_sram_bits > 10 * dcp.qp_sram_bits
    assert rack.qp_sram_bits > irn.qp_sram_bits   # per-packet timestamps
    assert gbn.qp_sram_bits == 0


def test_ordering_matches_paper():
    """Delta ordering: GBN < DCP << IRN << RACK-TLP."""
    rows = {r["scheme"]: r["nic_delta_vs_gbn"] for r in table4_rows()}
    assert rows["gbn"] == 0.0
    assert rows["gbn"] < rows["dcp"] < rows["irn"] < rows["rack_tlp"]


def test_dcp_counters_match_tracking_design():
    # 8 messages x 16 bits: the CounterTracker footprint.
    assert estimate("dcp").qp_sram_bits == 8 * 16


def test_total_sram_helper():
    est = ResourceEstimate("x", qp_register_bits=80, qp_sram_bits=720,
                           logic_units=1)
    assert est.total_sram_mb(10_000) == pytest.approx(1.0)


def test_unknown_scheme():
    with pytest.raises(ValueError):
        estimate("nope")


def test_inventory_fields_exist_in_implementations():
    """The inventory is falsifiable: the state it counts really exists."""
    from repro.core.dcp import _DcpSendState
    from repro.core.tracking import CounterTracker
    from repro.rnic.irn import _IrnSendState
    from repro.rnic.rack_tlp import _RackSendState

    assert "sretry" in _DcpSendState.__slots__          # sRetryNo registers
    assert hasattr(CounterTracker, "BITS_PER_MESSAGE")  # message counters
    # IRN's bitmap is the skeleton's SACK scoreboard: an inherited slot.
    assert hasattr(_IrnSendState, "sacked")
    assert "sent_ts" in _RackSendState.__slots__        # RACK timestamps
