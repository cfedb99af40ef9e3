"""Integration test for the §6.3 control-plane deep dive."""

from repro.experiments.presets import get_preset
from repro.experiments.registry import run_experiment


def test_deepdive_invariants():
    result = run_experiment("deepdive", preset="quick")
    rows = {r["metric"]: r for r in result.rows}
    # the data queue saturates around the trim threshold (never far past)
    peak_kb = rows["peak data queue (KB)"]["value"]
    assert peak_kb > 0
    # the control queue stays tiny relative to its capacity
    ctrl_kb = rows["peak control queue (KB)"]["value"]
    assert ctrl_kb < 200
    # trimming engaged and nothing was lost in the control plane
    assert rows["packets trimmed"]["value"] > 0
    assert rows["HO packets lost"]["value"] == 0
    assert (rows["flows completed"]["value"]
            == get_preset("quick").incast_fan_in)
