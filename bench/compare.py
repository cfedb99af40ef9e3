"""``python3 -m bench compare A.json B.json``: do two result files agree?

Exits non-zero when, for any workload present in both files,

* an end-to-end median of B differs from A's by more than the metric's
  bound in ``BENCHMARK.json``, in either direction;
* an exact counter (``sim.makespan_ms``, the simulated time the model
  took, is one) or the output digest differs;
* ``ops_failed / ops_total`` rose.

Prints one row per (workload, metric) with both medians and the ratio
B/A, so every ratio comes with its base.
"""

from __future__ import annotations

import json
import sys

from bench import harness


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(a: dict, b: dict, spec: dict) -> list[str]:
    """Print the table; return the list of disagreements."""
    failures = []
    if not (a["comparable"] and b["comparable"]):
        failures.append("a --smoke result is not comparable")
    if a["seed"] != b["seed"]:
        failures.append(f"seeds differ ({a['seed']} vs {b['seed']}): exact "
                        "counters only repeat at an equal seed")
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    if not shared:
        failures.append("the two files share no workload")
    print(f"{'workload':18s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = wa["end_to_end"][key]["value"]
            vb = wb["end_to_end"][key]["value"]
            ratio = vb / va
            bound = metric["bound"]
            ok = abs(ratio - 1.0) <= bound
            print(f"{name:18s} {key:16s} {va:14.6g} {vb:14.6g} {ratio:8.4f} "
                  f"{bound:6.2f}  {'ok' if ok else 'DIFFERS'}")
            if not ok:
                failures.append(f"{name}.{key}: {va:.6g} -> {vb:.6g} "
                                f"(x{ratio:.4f}, bound {bound:.2f})")
        for key in sorted(set(wa["exact"]) | set(wb["exact"])):
            ca, cb = wa["exact"].get(key), wb["exact"].get(key)
            if ca != cb:
                failures.append(f"{name}.{key}: exact counter {ca} -> {cb}")
        if wa["digest"] != wb["digest"]:
            failures.append(f"{name}: output digest changed")
        rate_a = wa["ops_failed"] / wa["ops_total"]
        rate_b = wb["ops_failed"] / wb["ops_total"]
        if rate_b > rate_a:
            failures.append(f"{name}: failed operations rose "
                            f"{wa['ops_failed']}/{wa['ops_total']} -> "
                            f"{wb['ops_failed']}/{wb['ops_total']}")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    failures = compare(_load(argv[0]), _load(argv[1]),
                       harness.load_benchmark_json())
    for failure in failures:
        print(f"DISAGREE: {failure}")
    print("agree" if not failures else f"{len(failures)} disagreements")
    return 1 if failures else 0
