"""§6.1 long-haul benchmark: DCP over a 10 km link."""

from benchmarks.conftest import run_key


def test_longhaul_stable_goodput(benchmark):
    result = run_key(benchmark, "longhaul", preset="quick")
    by = {r["distance_km"]: r for r in result.rows}
    line = by[10.0]["line_rate_gbps"]
    # paper: ~85% of line rate at 10 km, no PFC headroom needed
    assert by[10.0]["goodput_gbps"] > 0.7 * line
    # goodput roughly distance-independent
    assert by[10.0]["goodput_gbps"] > 0.8 * by[0.1]["goodput_gbps"]
