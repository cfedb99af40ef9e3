"""Fig 15 benchmark: cross-DC FCT slowdown (scaled 100 km analogue)."""

from benchmarks.conftest import run_key


def test_fig15_crossdc(benchmark):
    result = run_key(benchmark, "fig15", preset="quick")
    rows = {r["scheme"]: r for r in result.rows if r["distance"] == "100km"}
    # lossless schemes needed inflated buffers, lossy ones did not
    assert rows["pfc-ecmp"]["buffer_mb"] > rows["dcp-ar"]["buffer_mb"]
    assert rows["mp-rdma"]["buffer_mb"] > rows["irn-ar"]["buffer_mb"]
    # DCP's tail at or better than IRN's, and well under the lossless ones
    assert rows["dcp-ar"]["p95"] <= 1.2 * rows["irn-ar"]["p95"]
    assert rows["dcp-ar"]["p95"] <= rows["pfc-ecmp"]["p95"] * 1.2
