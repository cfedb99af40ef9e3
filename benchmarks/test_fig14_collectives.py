"""Fig 14 benchmark: simulated AllReduce/AllToAll JCT per scheme."""

from benchmarks.conftest import run_key


def test_fig14_collective_jct(benchmark):
    result = run_key(benchmark, "fig14", preset="quick")
    rows = {r["scheme"]: r for r in result.rows
            if r["collective"] == "allreduce"}
    ideal = rows["ideal"]["mean_jct_ms"]
    assert rows["dcp-ar"]["mean_jct_ms"] >= ideal        # sanity: bound holds
    # DCP at or near the best JCT (paper: 38-61% below the baselines)
    competitors = [rows[k]["mean_jct_ms"] for k in ("pfc-ecmp", "irn-ar",
                                                    "mp-rdma")]
    assert rows["dcp-ar"]["mean_jct_ms"] <= 1.1 * min(competitors)
