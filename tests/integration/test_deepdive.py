"""Integration test for the §6.3 control-plane deep dive and the
``queues`` block of a :func:`~repro.runner.points.simulate_flows`
payload it reads."""

import pytest

from repro.experiments.presets import get_preset
from repro.experiments.registry import run_experiment
from repro.experiments.spec import NetworkSpec
from repro.runner import points
from repro.runner.points import simulate_flows


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


@pytest.fixture
def nets(monkeypatch):
    """Every network a point builds, for reading its queues afterwards."""
    built = []
    real = points.PointTelemetry.network

    def network(self, spec):
        built.append(real(self, spec))
        return built[-1]

    monkeypatch.setattr(points.PointTelemetry, "network", network)
    return built


def test_peaks_are_the_victim_queues_high_water_marks(nets):
    # Exact, not sampled: at the default preset a 2 us sampler read the
    # control-queue peak as 11 970 B.
    from repro.experiments import deepdive_control_plane as deepdive

    (point,) = deepdive.sweep(get_preset("default"))
    payload = simulate_flows(point.spec, point.params)
    (net,) = nets
    data_q, ctrl_q = net.fabric.switches[0].ports[deepdive.RECEIVER].queues
    data_peak, _, ctrl_peak, _ = payload["queues"][deepdive.VICTIM_PORT]
    assert data_peak == data_q.max_bytes_seen
    assert ctrl_peak == ctrl_q.max_bytes_seen == 12_141
    assert payload["events"] == 76_178


@pytest.mark.parametrize("transport, lb", [("dcp", "ar"), ("gbn", "ecmp")])
def test_queues_block_lists_exactly_the_queues_that_held_a_byte(
        nets, transport, lb):
    # A 7-to-1 incast: DCP trims into control queues; GBN needs PFC.
    spec = NetworkSpec(transport=transport, lb=lb, topology="clos",
                       num_hosts=8, num_leaves=2, num_spines=2,
                       link_rate=10.0, buffer_bytes=400_000, seed=3)
    payload = simulate_flows(
        spec, {"flows": [[s, 0, 50_000, 0] for s in range(1, 8)]})
    (net,) = nets
    assert all(f["completed"] for f in payload["flows"])
    ports = {port.name: (switch.config, port)
             for switch in net.fabric.switches for port in switch.ports}
    assert set(payload["queues"]) == {
        name for name, (_cfg, port) in ports.items()
        if any(q.max_bytes_seen > 0 for q in port.queues)}
    for name, entry in payload["queues"].items():
        cfg, port = ports[name]
        data_q, ctrl_q = port.queues
        assert entry == [data_q.max_bytes_seen,
                         (cfg.trim_threshold_bytes if cfg.enable_trimming
                          else cfg.effective_data_queue_bytes()),
                         ctrl_q.max_bytes_seen, cfg.control_queue_bytes]
    if transport == "dcp":
        assert payload["queues"]["leaf0.p0"][2] > 0
    else:
        assert all(sw.pfc is not None for sw in net.fabric.switches)
        assert not any(entry[2] for entry in payload["queues"].values())
