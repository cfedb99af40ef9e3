"""Smoke tests: every shipped example must run to completion."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "switch summary" in out
    assert "slowdown" in out


def test_lossy_fabric_comparison(capsys):
    out = _run_example("lossy_fabric_comparison", capsys)
    assert "dcp" in out and "timeout" in out
    assert "stuck" not in out  # every scheme must finish its transfer


def test_ai_collectives(capsys):
    out = _run_example("ai_collectives", capsys)
    assert "DCP + adaptive routing" in out
    assert "ms" in out


def test_incast_control_plane(capsys):
    out = _run_example("incast_control_plane", capsys)
    assert "WRR weight" in out
    assert "True" in out  # all flows completed at every incast degree


def test_failure_timeline(capsys):
    out = _run_example("failure_timeline", capsys)
    assert "fail injected" in out
    assert "exactly-once delivery held: True" in out
    assert "coarse" in out


def test_scale_demo(capsys):
    out = _run_example("scale_demo", capsys)
    assert "256 hosts" in out
    assert "flows ran fluid" in out
    assert "no escalations" in out


def test_trace_demo(capsys, tmp_path):
    path = EXAMPLES / "trace_demo.py"
    spec = importlib.util.spec_from_file_location("example_trace_demo", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main(str(tmp_path / "demo.json"))
    finally:
        sys.modules.pop(spec.name, None)
    out = capsys.readouterr().out
    assert "drop" in out and "retx" in out      # the marker listing
    assert "where the time went" in out
    assert "validated: OK" in out
    assert (tmp_path / "demo.json").exists()


def test_cross_datacenter(capsys):
    out = _run_example("cross_datacenter", capsys)
    assert "inter-DC transfer" in out
    assert "100" in out
