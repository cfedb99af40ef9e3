"""Fig 1 benchmark: IRN's spurious retransmissions vs DCP under AR."""

from benchmarks.conftest import run_key


def test_fig1_spurious_retransmissions(benchmark):
    result = run_key(benchmark, "fig1", preset="quick")
    irn = result.row_by("scheme", "irn")
    dcp = result.row_by("scheme", "dcp")
    # no real loss in either setup
    assert irn["real_drops"] == 0
    assert dcp["real_drops"] == 0
    # IRN retransmits anyway; DCP never does
    assert irn["mean_retx_ratio"] > 0
    assert dcp["mean_retx_ratio"] == 0
    assert dcp["flows_with_retx"] == "0%"
