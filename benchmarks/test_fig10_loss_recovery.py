"""Fig 10 benchmark: DCP vs CX5 goodput under forced loss."""

from benchmarks.conftest import run_key


def test_fig10_loss_recovery_efficiency(benchmark):
    result = run_key(benchmark, "fig10", preset="quick")
    ratios = {r["loss_rate"]: r["dcp_over_cx5"] for r in result.rows}
    # equal at zero loss...
    assert 0.8 < ratios["0.00%"] < 1.3
    # ...monotone growth of DCP's advantage with loss (paper: 1.6-72x at
    # 100G; the crossover shifts right at the quick preset's smaller BDP)
    assert ratios["2.00%"] > 1.05
    assert ratios["5.00%"] > 3.0
    assert ratios["5.00%"] > ratios["2.00%"] > ratios["0.50%"]
    # DCP itself degrades gracefully (CX5 falls off a cliff)
    dcp = [r["dcp_gbps"] for r in result.rows]
    assert min(dcp) > 0.6 * max(dcp)
