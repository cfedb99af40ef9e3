"""Run one workload from outside and turn what came back into metrics.

The parent never imports ``repro``: it starts children with a scrubbed
environment, reads their peak RSS through ``os.wait4``, and computes
every metric from what they print, write or leave in the cache.

Timings are medians over the repetitions that fit in ``--seconds``
(reported with min, max and n), each divided by the host's slowdown
while it ran (``bench.HostSpeed``); the walls as the clock read them are
kept beside them under ``host``.  GC stays enabled in the children
because users run with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from bench import Budget, HostSpeed, fabric_counters, workloads
from bench.layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Mode switches that would make the run measure something other than
#: the defaults a user gets.
SCRUBBED_ENV = ("REPRO_BURST", "REPRO_PACKET_POOL", "REPRO_PACKET_POOL_DEBUG",
                "REPRO_KERNEL", "REPRO_BENCH_JOBS", "REPRO_CACHE_DIR")
#: Fresh-interpreter ``import repro.experiments.cli`` samples, taken
#: before and again after the workload: the box's speed changes on a
#: scale of seconds, and samples from both ends of the run see more of it.
IMPORT_SAMPLES_PER_END = 5
#: A child that has not finished by then is killed (the driver's own
#: limit is 180 s per run).
CHILD_TIMEOUT_S = 150


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([inherited] if inherited else []))
    return env


def run_child(argv: list[str]) -> tuple[int, str, float, float]:
    """Run ``argv`` to its end: (exit code, stdout, wall s, peak RSS MiB).

    ``os.wait4`` reports the peak RSS of the child and of the
    descendants it waited for, so a sweep's pool workers count.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read()
        _pid, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        # Never leave a child behind, whatever interrupted the read.
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, wall, rusage.ru_maxrss / 1024.0


def sample_import(host: HostSpeed) -> list[float]:
    """Normalised wall of fresh-interpreter start + ``import
    repro.experiments.cli``."""
    samples = []
    host.slowdown()     # a fresh calibration in front of the first sample
    for _ in range(IMPORT_SAMPLES_PER_END):
        code, _out, wall, _rss = run_child(
            [sys.executable, "-c", "import repro.experiments.cli"])
        if code != 0:
            raise RuntimeError("import repro.experiments.cli failed")
        samples.append(wall / host.slowdown())
    return samples


def summarise(values: list[float]) -> dict:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


# ------------------------------------------------------- simulated workloads
def run_sim(name: str, seed: int, seconds: float, trace: bool, smoke: bool
            ) -> dict:
    job = {"workload": name, "seed": seed, "seconds": seconds,
           "trace": trace, "smoke": smoke}
    host = HostSpeed(samples=3)
    import_samples = sample_import(host)
    code, stdout, _wall, rss_mb = run_child(
        [sys.executable, "-m", "bench.child", json.dumps(job)])
    if code != 0:
        raise RuntimeError(f"{name}: child exited {code}")
    import_samples += sample_import(host)
    out = json.loads(stdout.splitlines()[-1])
    reps = out["reps"]
    problems = [v for rep in reps for v in rep["violations"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], 2):
        if (rep["counters"], rep["digest"]) != (first["counters"],
                                                first["digest"]):
            problems.append(f"repetition {i} did not repeat repetition 1 "
                            "exactly (counters or digest differ)")
    setup = [rep["phases"]["build_s"] + rep["phases"]["layout_s"]
             for rep in reps]
    end_to_end = {
        "wall_s": summarise([rep["wall_s"] for rep in reps]),
        "setup_s": summarise(
            [statistics.median(import_samples) + s for s in setup]),
        "pkts_per_s": summarise(
            [rep["payload_pkts"] / rep["phases"]["simulate_s"]
             for rep in reps]),
        "peak_rss_mb": summarise([rss_mb]),
    }
    def phase(key: str) -> float:
        return statistics.median(rep["phases"][key] for rep in reps)

    timed = {
        "experiments.import_s": out["import_s"],
        "experiments.build_s": phase("build_s"),
        "workload.layout_s": phase("layout_s"),
        "sim.simulate_s": phase("simulate_s"),
        "sim.ns_per_event": statistics.median(
            rep["phases"]["simulate_s"] * 1e9 / rep["counters"]["sim.events"]
            for rep in reps),
        "experiments.collect_s": phase("collect_s"),
    }
    if len(first["cell_wall_s"]) > 1:
        for cell in first["cell_wall_s"]:
            timed[f"cell.{cell}.wall_s"] = statistics.median(
                rep["cell_wall_s"][cell] for rep in reps)
    return {
        "end_to_end": end_to_end, "exact": first["counters"], "timed": timed,
        "host": {
            "raw_wall_s": summarise([rep["raw_wall_s"] for rep in reps]),
            "slowdown": summarise([rep["host_slowdown"] for rep in reps])},
        "digest": first["digest"], "problems": problems,
        "ops_total": sum(rep["ops_total"] for rep in reps),
        "ops_failed": sum(rep["ops_failed"] for rep in reps),
        "reps": len(reps), "trace": out["trace"], "spans": out["spans"],
    }


# --------------------------------------------------------------- CLI sweeps
def _table_of(stdout: str) -> str:
    """The printed table: every line but the bracketed trailers
    (``[robustness finished in 0.7s]``, ``[metrics: ...]``, ``[runner: ...]``),
    which carry wall times and paths."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("["))


def _simulations_executed(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("[runner: "):
            return int(line.split()[1])
    return -1


def _read_cache(cache_dir: Path, mtu: int) -> dict:
    """Per-point results from the documented ``<key>.json`` envelopes."""
    summed: Counter = Counter()     # flow-level, by per-layer name
    registry: Counter = Counter()   # the points' registry counters, added up
    points = failed = payload_pkts = end_ns = size = 0
    for path in sorted(cache_dir.glob("*/*.json")):
        size += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)["payload"]
        points += 1
        flows = payload["flows"]
        if all(f["completed"] and f["rx_bytes"] == f["size_bytes"]
               for f in flows):
            payload_pkts += sum(-(-f["size_bytes"] // mtu) for f in flows)
        else:
            failed += 1
        end_ns += payload["end_ns"]
        summed["sim.events"] += payload["events"]
        summed["workload.flows"] += len(flows)
        summed["rnic.retx_pkts"] += sum(f["retx_pkts"] for f in flows)
        summed["rnic.timeouts"] += sum(f["timeouts"] for f in flows)
        summed["rnic.dup_pkts_received"] += sum(
            f["dup_pkts_received"] for f in flows)
        registry.update(payload["metrics"]["counters"])
    exact = {
        **fabric_counters(registry),
        **summed,
        "sim.makespan_ms": end_ns / 1e6,
        "runner.points": points,
        "runner.cache_files": points,
        "runner.cache_bytes": size,
    }
    return {"exact": exact, "failed_points": failed,
            "payload_pkts": payload_pkts}


@dataclass
class CliRun:
    """One ``python -m repro.experiments.cli`` subprocess, run to its end."""

    code: int
    stdout: str
    wall_s: float
    rss_mb: float
    cache_dir: Path
    jsonl: Path


def run_cli(args: tuple, scratch: Path, cache: str) -> CliRun:
    cache_dir = scratch / cache
    jsonl = scratch / f"{cache}.jsonl"
    code, stdout, wall, rss = run_child(
        [sys.executable, "-m", "repro.experiments.cli", *args,
         "--cache-dir", str(cache_dir), "--metrics-out", str(jsonl)])
    return CliRun(code, stdout, wall, rss, cache_dir, jsonl)


def run_sweep(name: str, seconds: float, trace: bool, smoke: bool,
              scratch: Path) -> dict:
    host = HostSpeed(samples=3)
    import_samples = sample_import(host)
    args = workloads.SWEEP_SMOKE_ARGS if smoke else workloads.SWEEP_ARGS
    points = (workloads.SWEEP_SMOKE_POINTS if smoke
              else workloads.SWEEP_POINTS)
    replay = name == "sweep_replay"
    # Untimed: the replay workload's cache is populated by a full cold
    # run, which also warms the page cache and the .pyc files; the cold
    # workload warms up on the 9-point baseline scenario only.
    warm = run_cli(args if replay else workloads.SWEEP_SMOKE_ARGS,
                   scratch, "replay" if replay else "warmup")
    if warm.code != 0:
        raise RuntimeError(f"{name}: warm-up CLI run exited {warm.code}")
    reference_table = _table_of(warm.stdout) if replay else None

    problems: list[str] = []
    runs: list[CliRun] = []
    slowdowns: list[float] = []
    failed_ops = 0
    first = None
    budget = Budget(seconds, trace)
    host.slowdown()
    while not budget.spent([r.wall_s for r in runs]):
        rep = len(runs) + 1
        run = run_cli(args, scratch, "replay" if replay else f"cold{rep}")
        slowdowns.append(host.slowdown())
        runs.append(run)
        executed = _simulations_executed(run.stdout)
        cache = _read_cache(run.cache_dir, workloads.MTU_PAYLOAD)
        exact = cache["exact"]
        with open(run.jsonl, "rb") as fh:
            exact["obs.metrics_records"] = sum(1 for _ in fh)
        exact["obs.metrics_jsonl_bytes"] = run.jsonl.stat().st_size
        exact["runner.simulated"] = points if replay else executed
        exact["runner.replay_simulated"] = executed if replay else 0
        want = 0 if replay else points
        if (run.code != 0 or executed != want
                or exact["runner.points"] != points):
            problems.append(
                f"repetition {rep}: exit {run.code}, {executed} simulations "
                f"executed (expected {want}), {exact['runner.points']} "
                f"cached points (expected {points})")
            failed_ops += points
        else:
            failed_ops += cache["failed_points"]
        table = _table_of(run.stdout)
        if reference_table is None:
            reference_table = table
        elif table != reference_table:
            problems.append(f"repetition {rep}: the printed table is not "
                            "byte-identical to the first run's")
        if first is None:
            first = cache
        elif exact != first["exact"]:
            problems.append(f"repetition {rep} did not repeat repetition 1 "
                            "exactly (counters differ)")

    # Same entry point as ``python -m repro.obs.schema``; -m itself warns
    # that the package imported the module first.
    code, out, _wall, _rss = run_child(
        [sys.executable, "-c", "import sys; from repro.obs.schema import main;"
         " sys.exit(main(sys.argv[1:]))", str(runs[-1].jsonl)])
    if code != 0:
        problems.append("exported JSONL failed repro.obs.schema: "
                        + out.strip())

    import_samples += sample_import(host)
    walls = [r.wall_s / slow for r, slow in zip(runs, slowdowns)]
    result = {
        "end_to_end": {
            "wall_s": summarise(walls),
            "setup_s": summarise(import_samples),
            "pkts_per_s": summarise(
                [first["payload_pkts"] / w for w in walls]),
            "peak_rss_mb": summarise([r.rss_mb for r in runs]),
        },
        "host": {"raw_wall_s": summarise([r.wall_s for r in runs]),
                 "slowdown": summarise(slowdowns)},
        "exact": first["exact"],
        "timed": {"experiments.import_s": statistics.median(import_samples)},
        "digest": hashlib.sha256(reference_table.encode()).hexdigest(),
        "problems": problems,
        "ops_total": points * len(runs), "ops_failed": failed_ops,
        "reps": len(runs), "trace": None, "spans": [],
    }
    if trace:
        job = {"workload": name, "cli_args": list(args),
               "scratch": str(scratch)}
        code, stdout, _wall, _rss = run_child(
            [sys.executable, "-m", "bench.child", json.dumps(job)])
        if code != 0:
            raise RuntimeError(f"{name}: traced child exited {code}")
        out = json.loads(stdout.splitlines()[-1])
        result["trace"] = out["trace"]
        result["spans"] = out["spans"]
    return result


# ------------------------------------------------------------------ driver
def per_layer_metrics(result: dict, names: list[str]) -> dict:
    """Every per-layer metric BENCHMARK.json lists; 0 where the workload
    does not produce it (no PFC frames on a lossy fabric, no ``cell.*``
    on a single-cell workload, no profile without ``--trace 1``)."""
    values: dict[str, float] = dict(result["exact"])
    values.update(result["timed"])
    values["sim.digest_match"] = result["digest_match"]
    trace = result["trace"]
    if trace is not None:
        for layer in LAYERS:
            bucket = trace["layers"][layer]
            values[f"{layer}.self_s"] = bucket["self_s"]
            values[f"{layer}.share"] = bucket["share"]
            values[f"{layer}.calls"] = bucket["calls"]
        values["net.packet.make_data_packet.calls"] = trace[
            "make_data_packet_calls"]
        values["trace.overhead_x"] = (trace["traced_wall_s"]
                                      / trace["untraced_wall_s"])
    unlisted = sorted(set(values) - set(names))
    if unlisted:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: "
                           f"{unlisted}")
    return {name: values.get(name, 0) for name in names}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_pin(result: dict, name: str, seed: int, smoke: bool
              ) -> tuple[int, list[str]]:
    """Compare digest and exact counters with ``bench/expected.json``:
    (``sim.digest_match``, what to print).

    A mismatch is reported loudly but is not a failed operation: it
    says the model's answer changed, which a PR may intend.
    """
    size = "smoke" if smoke else "full"
    pin = load_expected().get(size, {}).get(str(seed), {}).get(name)
    if pin is None:
        return 1, [f"no pinned digest for seed {seed} ({size} size): only "
                   "repeatability within the run was checked"]
    notes = []
    if pin["digest"] != result["digest"]:
        notes.append(f"DIGEST MISMATCH: {result['digest']} != pinned "
                     f"{pin['digest']}")
    for key, want in pin["exact"].items():
        got = result["exact"].get(key)
        if got != want:
            notes.append(f"COUNTER MISMATCH: {key} = {got}, pinned {want}")
    return (0 if notes else 1), notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Measure one workload; returns its record for the results file."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        if name in workloads.CLI_WORKLOADS:
            result = run_sweep(name, seconds, trace, smoke, scratch)
        else:
            result = run_sim(name, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["digest_match"], result["pin_notes"] = check_pin(
        result, name, seed, smoke)
    result.update(workload=name, seed=seed, seconds=seconds, smoke=smoke,
                  traced=trace)
    result["correct"] = not result["problems"] and result["ops_failed"] == 0
    return result
