"""Fig 11 benchmark: adaptive routing over unequal-capacity paths."""

from benchmarks.conftest import run_key


def test_fig11_ar_adapts_to_unequal_paths(benchmark):
    result = run_key(benchmark, "fig11", preset="quick")
    by = {r["capacity_ratio"]: r for r in result.rows}
    # DCP+AR holds goodput across ratios (paper: stable at every ratio,
    # modulo the shrinking aggregate capacity)
    dcp = [by[k]["dcp_ar_gbps"] for k in ("1:1", "1:4", "1:10")]
    assert min(dcp) > 0.4 * max(dcp)
    # DCP never loses to ECMP's average draw and crushes its collision
    # draw (the case the paper's testbed plot shows)
    for ratio in ("1:4", "1:10"):
        assert by[ratio]["dcp_ar_gbps"] > 0.95 * by[ratio]["cx5_ecmp_mean_gbps"]
        assert by[ratio]["dcp_ar_gbps"] > 2.0 * by[ratio]["cx5_ecmp_worst_gbps"]
