"""Fig 2 benchmark: RTO counts for IRN-ECMP / IRN-AR / DCP."""

from benchmarks.conftest import run_key


def test_fig2_excessive_rtos(benchmark):
    result = run_key(benchmark, "fig2", preset="quick")
    by = {r["scheme"]: r for r in result.rows}
    irn_total = {k: by[k]["bg_timeouts"] + by[k]["incast_timeouts"]
                 for k in ("irn-ecmp", "irn-ar")}
    dcp_total = by["dcp-ar"]["bg_timeouts"] + by["dcp-ar"]["incast_timeouts"]
    # the fabric must actually have lost packets for IRN
    assert by["irn-ecmp"]["drops"] > 0
    # IRN times out; DCP (whose losses become trims) essentially never does
    assert max(irn_total.values()) > 0
    assert dcp_total <= min(irn_total.values())
    assert by["dcp-ar"]["trims"] > 0
    assert by["dcp-ar"]["incomplete"] == 0
