"""Fig 12 benchmark: testbed AllReduce/AllToAll, DCP+AR vs CX5+ECMP."""

from benchmarks.conftest import run_key


def test_fig12_testbed_collectives(benchmark):
    result = run_key(benchmark, "fig12", preset="quick")
    for workload in ("allreduce", "alltoall"):
        rows = {r["scheme"]: r for r in result.rows
                if r["workload"] == workload}
        # paper: DCP cuts JCT up to 33%/42%; require it not to lose
        assert (rows["dcp-ar"]["max_jct_ms"]
                <= 1.10 * rows["cx5-ecmp"]["max_jct_ms"]), workload
