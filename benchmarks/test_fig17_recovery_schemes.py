"""Fig 17 benchmark: recovery schemes vs loss rate."""

from benchmarks.conftest import run_key


def test_fig17_scheme_ordering(benchmark):
    result = run_key(benchmark, "fig17", preset="quick")
    at_2pct = result.row_by("loss_rate", "2.00%")
    # paper's ordering at meaningful loss: DCP >= RACK-TLP >= IRN >> timeout
    assert at_2pct["dcp_gbps"] >= 0.95 * at_2pct["rack_tlp_gbps"]
    assert at_2pct["rack_tlp_gbps"] >= 0.7 * at_2pct["irn_gbps"]
    assert at_2pct["dcp_gbps"] > 3 * at_2pct["timeout_gbps"]
    # timeout-only collapses hardest as loss grows
    first = result.rows[0]
    last = result.rows[-1]
    assert last["timeout_gbps"] < 0.2 * first["timeout_gbps"]
    assert last["dcp_gbps"] > 0.55 * first["dcp_gbps"]
