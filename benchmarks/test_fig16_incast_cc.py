"""Fig 16 benchmark: incast at high load, with and without DCQCN."""

from benchmarks.conftest import run_key


def test_fig16_cc_integration(benchmark):
    result = run_key(benchmark, "fig16", preset="quick")
    def row(cc, scheme):
        return next(r for r in result.rows
                    if r["cc"] == cc and r["scheme"] == scheme)

    # DCP's P50 stays competitive with and without CC (paper Fig 16a/b;
    # at the quick preset's tiny flows the message-ACK latency costs DCP
    # a little median, so "competitive" rather than strictly best)
    for cc in ("none", "dcqcn"):
        dcp = row(cc, "dcp")
        assert dcp["p50"] <= 1.5 * min(row(cc, "irn")["p50"],
                                       row(cc, "mp_rdma")["p50"])
    # CC integration must not degrade DCP's tail (Fig 16d: it wins there)
    assert row("dcqcn", "dcp")["p99"] <= 1.2 * row("none", "dcp")["p99"]
    # with CC, DCP's tail beats IRN's (the paper's headline Fig 16d gap)
    assert row("dcqcn", "dcp")["p99"] <= row("dcqcn", "irn")["p99"]
    # the incast genuinely stressed the DCP control plane
    assert row("none", "dcp")["trims"] > 0
