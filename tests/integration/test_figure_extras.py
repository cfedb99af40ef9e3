"""Coverage for the per-bin curves and CDF outputs of Figs 13/14, read
from the same sweep payloads as the main tables."""

from repro.experiments import fig13_websearch as fig13
from repro.experiments import fig14_ai_sim as fig14
from repro.experiments.presets import get_preset
from repro.runner import serial_runner

QUICK = get_preset("quick")


def _payloads(mod, key):
    return serial_runner().run_points(key, mod.sweep(QUICK),
                                      mod.POINT_RUNNER)


def test_fig13_per_bin_table():
    result = fig13.per_bin_table(_payloads(fig13, "fig13"), QUICK, load=0.3,
                                 percentile_key="p95")
    assert result.rows, "no bins produced"
    bins = result.column("bin_kb")
    assert bins == sorted(bins)
    # every scheme contributed a curve
    for label in ("pfc-ecmp", "irn-ar", "mp-rdma", "dcp-ar"):
        assert any(label in row for row in result.rows)
    # slowdowns are >= 1 wherever defined
    for row in result.rows:
        for key, val in row.items():
            if key != "bin_kb" and val == val:  # skip NaN
                assert val >= 1.0


def test_fig14_cdf_output():
    curves = fig14.fct_cdf(_payloads(fig14, "fig14"), "alltoall")
    assert set(curves) == {"pfc-ecmp", "irn-ar", "mp-rdma", "dcp-ar"}
    for label, points in curves.items():
        assert points, label
        probs = [p for _v, p in points]
        assert probs == sorted(probs)
        assert probs[-1] == 1.0


def test_fig14_ideal_bounds():
    ar = fig14.ideal_jct_ns("allreduce", QUICK)
    a2a = fig14.ideal_jct_ns("alltoall", QUICK)
    assert ar > a2a > 0  # the ring makes 2(k-1) serial steps
