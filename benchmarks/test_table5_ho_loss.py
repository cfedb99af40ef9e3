"""Table 5 benchmark: lossless-control-plane robustness under incast."""

from benchmarks.conftest import run_key


def test_table5_control_plane_robustness(benchmark):
    result = run_key(benchmark, "table5", preset="quick")
    # the incast really produced HO traffic
    assert any(r["ho_packets"] > 0 for r in result.rows)
    # larger N -> larger weight (the §4.2 dial)
    w22 = max(r["wrr_weight"] for r in result.rows if r["N"] == 22)
    w16 = max(r["wrr_weight"] for r in result.rows if r["N"] == 16)
    assert w22 >= w16
    # paper Table 5: HO loss is zero or near-zero everywhere; with CC
    # enabled it is exactly zero
    for r in result.rows:
        ratio = float(r["loss_ratio"].strip("%")) / 100
        assert ratio < 0.02
        if r["cc"] == "dcqcn":
            assert r["ho_lost"] == 0
