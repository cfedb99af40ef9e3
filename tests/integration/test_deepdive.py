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


def test_peaks_are_the_victim_queues_high_water_marks(monkeypatch):
    # Exact, not sampled: at the default preset a 2 us sampler read the
    # control-queue peak as 11 970 B.
    from repro.experiments import deepdive_control_plane as deepdive
    from repro.runner import points

    nets = []
    real = points.PointTelemetry.network

    def network(self, spec):
        nets.append(real(self, spec))
        return nets[-1]

    monkeypatch.setattr(points.PointTelemetry, "network", network)
    (point,) = deepdive.sweep(get_preset("default"))
    payload = deepdive.run_point(point.spec, point.params)
    (net,) = nets
    data_q, ctrl_q = net.fabric.switches[0].ports[deepdive.RECEIVER].queues
    assert payload["peak_data_bytes"] == data_q.max_bytes_seen
    assert payload["peak_ctrl_bytes"] == ctrl_q.max_bytes_seen == 12_141
