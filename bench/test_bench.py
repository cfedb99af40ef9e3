"""Self-test of the benchmark harness (not part of tier-1's testpaths).

    python3 -m pytest bench/test_bench.py -q

Runs the whole benchmark once at ``--smoke`` size (about 20 s).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import compare, gen, layers, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_smoke_runs_every_workload_and_metric(smoke_results):
    assert smoke_results["comparable"] is False
    assert list(smoke_results["workloads"]) == list(workloads.WORKLOADS)
    for name, record in smoke_results["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["ops_total"] > 0 and record["ops_failed"] == 0
        for metric in SPEC["end_to_end"]:
            stat = record["end_to_end"][metric["name"]]
            assert stat["value"] > 0 and stat["n"] >= 1, (name, metric)
        # The walls as the clock read them ride along with the normalised
        # ones, and the exact makespan guard is among the counters.
        assert record["host"]["raw_wall_s"]["n"] == record["reps"]
        assert 0.2 < record["host"]["slowdown"]["value"] < 10
        assert record["exact"]["sim.makespan_ms"] > 0


def test_compare_with_itself_passes_and_perturbed_fails(smoke_results, capsys):
    base = copy.deepcopy(smoke_results)
    assert compare.compare(base, base, SPEC) == ["a --smoke result is not "
                                                 "comparable"]
    base["comparable"] = True
    assert compare.compare(base, copy.deepcopy(base), SPEC) == []

    slower = copy.deepcopy(base)
    slower["workloads"]["collective64"]["end_to_end"]["wall_s"]["value"] *= 1.5
    assert any("collective64.wall_s" in f
               for f in compare.compare(base, slower, SPEC))

    recount = copy.deepcopy(base)
    recount["workloads"]["singleflow_lossy"]["exact"]["rnic.retx_pkts"] += 1
    assert any("rnic.retx_pkts" in f
               for f in compare.compare(base, recount, SPEC))

    later = copy.deepcopy(base)
    later["workloads"]["websearch_mix"]["exact"]["sim.makespan_ms"] *= 1.001
    assert any("sim.makespan_ms" in f
               for f in compare.compare(base, later, SPEC))

    failing = copy.deepcopy(base)
    failing["workloads"]["sweep_cold"]["ops_failed"] = 1
    assert any("failed operations rose" in f
               for f in compare.compare(base, failing, SPEC))
    capsys.readouterr()


def test_layer_map_covers_every_source_directory():
    package = ROOT / "src" / "repro"
    directories = sorted(p.name for p in package.iterdir()
                         if p.is_dir() and p.name != "__pycache__")
    assert set(directories) <= set(layers.LAYERS)
    for path in package.rglob("*.py"):
        if path.parent == package:
            continue  # the package's own __init__
        layer = layers.layer_of(str(path))
        assert layer != layers.OUTSIDE, path
        assert layer.split(".")[0] == path.relative_to(package).parts[0]
    layer_of = layers.layer_of
    assert layer_of(str(package / "sim" / "fidelity.py")) == "sim.fidelity"
    assert layer_of(str(package / "net" / "packet.py")) == "net.packet"
    assert layer_of("/usr/lib/python3/json/decoder.py") == layers.OUTSIDE
    assert layers.layer_of("~") == layers.OUTSIDE


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share",
                f"{layer}.calls"} <= per_layer
    for transport in workloads.TRANSPORTS:
        assert f"cell.{transport}.wall_s" in per_layer


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_single_workload_prints_the_contract_line(trace, section):
    proc = _bench("--workload", "websearch_mix", "--seed", "7", "--seconds",
                  "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    if section == "per_layer":
        assert line["metrics"]["trace.overhead_x"]["value"] > 1
        assert line["metrics"]["net.pfc.pause_frames"]["unit"] == "count"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "collective64", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generator_is_seeded_and_stratified():
    kwargs = dict(num_leaves=4, hosts_per_leaf=8, link_rate=10.0,
                  duration_ns=500_000, size_scale=50.0, bg_load=0.5,
                  incast_load=0.05, fan_in=16, incast_flow_bytes=30_000)
    one = gen.websearch_incast_mix(1, **kwargs)
    assert one == gen.websearch_incast_mix(1, **kwargs)
    two = gen.websearch_incast_mix(2, **kwargs)
    assert one != two
    # A relabelling: same sizes and start times, same leaf-crossing pattern.
    assert [f[2:] for f in one] == [f[2:] for f in two]
    assert ([(s // 8 == d // 8) for s, d, *_ in one]
            == [(s // 8 == d // 8) for s, d, *_ in two])
    assert all(src != dst and size > 0 for src, dst, size, _start in one)
    assert [f[3] for f in one] == sorted(f[3] for f in one)
    for seed in (1, 2, 3):
        (src, dst, size, start), = gen.cross_fabric_flow(seed, 16, 2_000_000,
                                                         1000)
        assert src < 8 <= dst and start == 0
        assert -(-size // 1000) == 2000
