"""Fig 13 benchmark: WebSearch FCT slowdown across the four schemes."""

from benchmarks.conftest import run_key


def test_fig13_websearch_slowdown(benchmark):
    result = run_key(benchmark, "fig13", preset="quick")
    rows = {r["scheme"]: r for r in result.rows if r["load"] == 0.3}
    # all schemes completed a comparable flow population
    assert all(r["flows"] > 20 for r in rows.values())
    # DCP posts the best (or tied-best) tail among fine-grained schemes
    assert rows["dcp-ar"]["p95"] <= 1.15 * rows["irn-ar"]["p95"]
    assert rows["dcp-ar"]["p95"] <= 1.15 * rows["mp-rdma"]["p95"]
    # DCP never times out on the general workload
    assert rows["dcp-ar"]["timeouts"] <= rows["irn-ar"]["timeouts"] + 1
