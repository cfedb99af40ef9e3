"""``python3 -m bench``: run the benchmark, or compare two result files.

    python3 -m bench                               # all seven workloads
    python3 -m bench --workload hybrid256 --seed 3 --seconds 12 --trace 0
    python3 -m bench --trace 1                     # per-layer pass
    python3 -m bench compare A.json B.json

With a single ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end numbers are never taken from a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from bench import compare, harness, workloads


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_workload(record: dict, spec: dict) -> None:
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  {record['reps']} repetitions  "
          f"ops {record['ops_total']} failed {record['ops_failed']}"
          f"{'  [smoke: not comparable]' if record['smoke'] else ''} ==")
    if record["traced"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, value in record["per_layer"].items():
            if value:
                print(f"  {metric:38s} {value:>16.6g} {units[metric]}")
    else:
        for metric in spec["end_to_end"]:
            stat = record["end_to_end"][metric["name"]]
            print(f"  {metric['name']:16s} {stat['value']:>14.6g} "
                  f"{metric['unit']:6s} (min {stat['min']:.6g}, max "
                  f"{stat['max']:.6g}, n={stat['n']})")
        host = record["host"]
        print(f"  host slowdown x{host['slowdown']['value']:.3f} of the "
              f"reference (min {host['slowdown']['min']:.3f}, max "
              f"{host['slowdown']['max']:.3f}); wall_s as the clock read it "
              f"{host['raw_wall_s']['value']:.6g} s")
    for note in record["pin_notes"]:
        print(f"  !! {note}" if "MISMATCH" in note else f"  note: {note}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


def _contract_line(record: dict, spec: dict) -> str:
    if record["traced"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in record["per_layer"].items()}
    else:
        medians = record["end_to_end"]
        metrics = {m["name"]: {"value": medians[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["ops_total"],
                       "failed": record["ops_failed"], "metrics": metrics})


def _pin(records: list[dict]) -> None:
    expected = harness.load_expected()
    for record in records:
        size = "smoke" if record["smoke"] else "full"
        by_seed = expected.setdefault(size, {}).setdefault(
            str(record["seed"]), {})
        by_seed[record["workload"]] = {"digest": record["digest"],
                                       "exact": record["exact"]}
    with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(records)} workloads in {harness.EXPECTED_PATH}")


def run(args: argparse.Namespace) -> int:
    if not (harness.SRC / "repro").is_dir():
        print(f"bench: {harness.SRC / 'repro'} not found: the benchmark "
              "measures the program in this checkout's src/", file=sys.stderr)
        return 2
    spec = harness.load_benchmark_json()
    names = (args.workload.split(",") if args.workload
             else list(workloads.WORKLOADS))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {', '.join(unknown)}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else spec["run_seconds"])
    per_layer_names = [m["name"] for m in spec["per_layer"]]
    records = []
    for name in names:
        record = harness.run_workload(name, args.seed, seconds,
                                      bool(args.trace), args.smoke)
        record["per_layer"] = harness.per_layer_metrics(record,
                                                        per_layer_names)
        _print_workload(record, spec)
        records.append(record)
    results = {
        "comparable": not args.smoke,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_sha": _git_sha(),
        "seed": args.seed, "seconds": seconds, "traced": bool(args.trace),
        "workloads": {r["workload"]: r for r in records},
    }
    out = args.out or str(harness.OUT_DIR / (
        "trace.json" if args.trace else "results.json"))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"results written to {out}")
    if args.pin:
        _pin(records)
    if len(records) == 1:
        print(_contract_line(records[0], spec))
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", default=None,
                        metavar="A,B",
                        help="comma-separated subset (default: all seven)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of bench/gen.py's inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one workload measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the separate per-layer pass (phase spans + "
                             "one cProfile repetition); 0: end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload ~20x (self-test; results "
                             "are marked non-comparable)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="results file (default: .bench_out/results.json, "
                             "or trace.json with --trace 1)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests and exact counters "
                             "in bench/expected.json")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
