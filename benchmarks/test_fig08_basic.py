"""Fig 8 benchmark: throughput/latency of DCP vs GBN vs TCP."""

from benchmarks.conftest import run_key


def test_fig8_offloading_preserved(benchmark):
    result = run_key(benchmark, "fig8", preset="quick")
    by = {r["scheme"]: r for r in result.rows}
    # DCP keeps RNIC-class performance (paper: ~97 Gbps both)
    assert by["dcp"]["throughput_gbps"] > 0.9 * by["gbn"]["throughput_gbps"]
    assert by["dcp"]["latency_us"] < 1.5 * by["gbn"]["latency_us"]
    # both RNICs trounce the software stack on both axes
    assert by["gbn"]["throughput_gbps"] > 3 * by["tcp"]["throughput_gbps"]
    assert by["tcp"]["latency_us"] > 5 * by["dcp"]["latency_us"]
