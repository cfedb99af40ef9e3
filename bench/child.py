"""The fresh child interpreter that runs one workload.

``python -m bench.child '<job json>'`` is started by ``bench.harness``
with a scrubbed environment, so that ``peak_rss_mb`` (read by the parent
through ``os.wait4``) is the footprint of this workload alone and the
import cost is paid the way a user pays it.  It prints one JSON object.

Every layer is measured from outside: the benchmark times calls into
public functions (``Network(spec)``, ``open_flow``,
``run_grouped_collectives``, ``run_until_flows_done``, ``cli.main``) and
reads public counters (``sim.events_processed``, ``sim.packet_seq``,
``sim.packet_pool``, the ``*.stats`` blocks through a
``MetricsRegistry``, ``net.fidelity.summary()``).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from bench import (Budget, HostSpeed, fabric_counters, layers,  # noqa: E402
                   workloads)

_T_IMPORT0 = time.perf_counter()
import repro.experiments.cli as repro_cli  # noqa: E402
from repro.analysis.fct import percentile  # noqa: E402
from repro.experiments.common import Network, NetworkSpec  # noqa: E402
from repro.obs import registry as metrics  # noqa: E402
from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.workload.collective import run_grouped_collectives  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT0


class Spans:
    """In-memory phase spans: name, start, end, parent, workload id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        # The imports at the top of this file ran before any span could.
        self.rows: list[dict] = [{
            "id": 0, "name": "import", "parent": None, "workload": workload,
            "start_s": _T_IMPORT0 - _T0,
            "end_s": _T_IMPORT0 - _T0 + IMPORT_S}]

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        row = {"id": len(self.rows), "name": name, "parent": parent,
               "workload": self.workload,
               "start_s": time.perf_counter() - _T0, "end_s": None}
        self.rows.append(row)
        try:
            yield row["id"]
        finally:
            row["end_s"] = time.perf_counter() - _T0

    def duration(self, span_id: int) -> float:
        row = self.rows[span_id]
        return row["end_s"] - row["start_s"]


def run_cell(cell: workloads.Cell, spans: Spans, parent: int) -> dict:
    """build -> layout -> simulate -> collect for one cell."""
    registry = MetricsRegistry()
    previous = metrics.active()
    metrics.install(registry)
    completions: list = []
    try:
        with spans.span(f"cell:{cell.name}", parent) as cell_span:
            with spans.span("build", cell_span) as build:
                net = Network(NetworkSpec(**cell.spec))
            with spans.span("layout", cell_span) as layout:
                if cell.allreduce is not None:
                    groups, group_size, total_bytes = cell.allreduce
                    run_grouped_collectives(net, "allreduce", groups,
                                            group_size, total_bytes)
                else:
                    for src, dst, size, start in cell.flows:
                        net.open_flow(src, dst, size, start,
                                      on_complete=completions.append)
            with spans.span("simulate", cell_span) as simulate:
                net.run_until_flows_done(max_events=workloads.MAX_EVENTS)
            with spans.span("collect", cell_span) as collect:
                out = _collect(cell, net, registry, completions)
    finally:
        metrics.install(previous)
    out["phases"] = {"build_s": spans.duration(build),
                     "layout_s": spans.duration(layout),
                     "simulate_s": spans.duration(simulate),
                     "collect_s": spans.duration(collect)}
    out["wall_s"] = spans.duration(cell_span)
    return out


def _collect(cell: workloads.Cell, net: Network, registry: MetricsRegistry,
             completions: list) -> dict:
    """Read flows and counters back; apply the per-cell output checks."""
    mtu = cell.spec["mtu_payload"]
    completed_times = Counter(id(f) for f in completions)
    digest = hashlib.sha256(cell.name.encode())
    failed = delivered_pkts = data_sent = retx = timeouts = dups = 0
    makespan_ns = 0
    # Ring collectives open their later steps from completion callbacks,
    # so the flow list is only final here.
    for flow in net.flows:
        ok = (flow.completed and flow.rx_bytes == flow.size_bytes
              and (cell.flows is None or completed_times[id(flow)] == 1))
        if ok:
            delivered_pkts += -(-flow.size_bytes // mtu)
            makespan_ns = max(makespan_ns, flow.rx_complete_ns)
        else:
            failed += 1
        stats = flow.stats
        data_sent += stats.data_pkts_sent
        retx += stats.retx_pkts_sent
        timeouts += stats.timeouts
        dups += stats.dup_pkts_received
        digest.update(b"%d,%d,%d,%d;" % (
            flow.fct_ns() if flow.completed else -1, flow.rx_bytes,
            stats.retx_pkts_sent, stats.timeouts))
    digest.update(b"end=%d" % net.sim.now)

    pool = net.sim.packet_pool
    fidelity = net.fidelity.summary() if net.fidelity is not None else {}
    counters = {
        "sim.events": net.sim.events_processed,
        "net.packet.built": net.sim.packet_seq,
        "net.packet.pool_fresh": pool.allocated if pool is not None else 0,
        "net.packet.pool_reused": pool.reused if pool is not None else 0,
        **fabric_counters(registry.to_payload()["counters"]),
        "rnic.data_pkts_sent": data_sent + retx,
        "rnic.retx_pkts": retx,
        "rnic.timeouts": timeouts,
        "rnic.dup_pkts_received": dups,
        "sim.fidelity.fluid_flows": fidelity.get("fluid_flows", 0),
        "sim.fidelity.packet_flows": fidelity.get("packet_flows", 0),
        "sim.fidelity.escalations": fidelity.get("escalations", 0),
        "workload.flows": len(net.flows),
    }
    if cell.flows is not None and len(cell.flows) > 1:
        slowdowns = [sd for _flow, sd in net.slowdowns()]
        for pct in (50, 99):
            counters[f"analysis.{cell.name}.slowdown_p{pct}"] = percentile(
                slowdowns, pct)

    violations = []
    if cell.lossless_fabric and counters["net.switch.dropped"]:
        violations.append(f"{cell.name}: PFC fabric dropped "
                          f"{counters['net.switch.dropped']} packets")
    if cell.no_recovery and (retx or timeouts):
        violations.append(f"{cell.name}: {retx} retransmissions and "
                          f"{timeouts} timeouts at 0 % loss")
    if cell.fluid_only and (counters["sim.fidelity.escalations"]
                            or counters["net.packet.built"]):
        violations.append(
            f"{cell.name}: left the fluid tier "
            f"({counters['sim.fidelity.escalations']} escalations, "
            f"{counters['net.packet.built']} packets built)")
    return {
        "name": cell.name, "counters": counters, "digest": digest.hexdigest(),
        "ops_total": len(net.flows), "ops_failed": failed,
        "payload_pkts": delivered_pkts, "makespan_ns": makespan_ns,
        "violations": violations,
    }


def run_repetition(cells: list[workloads.Cell], spans: Spans,
                   parent: int | None = None) -> dict:
    """All of a workload's cells once; counters summed over cells."""
    with spans.span("repetition", parent) as rep_span:
        results = [run_cell(cell, spans, rep_span) for cell in cells]
    counters: Counter = Counter()
    phases: Counter = Counter()
    digest = hashlib.sha256()
    for res in results:
        counters.update(res["counters"])
        phases.update(res["phases"])
        digest.update(res["digest"].encode())
    payload = sum(r["payload_pkts"] for r in results)
    sent = counters["rnic.data_pkts_sent"]
    counters["net.packet.built_per_delivered"] = (
        counters["net.packet.built"] / payload if payload else 0.0)
    counters["rnic.useful_ratio"] = payload / sent if sent else 0.0
    counters["sim.makespan_ms"] = sum(r["makespan_ns"] for r in results) / 1e6
    return {
        "wall_s": spans.duration(rep_span),
        "phases": dict(phases),
        "cell_wall_s": {r["name"]: r["wall_s"] for r in results},
        "counters": dict(counters),
        "digest": digest.hexdigest(),
        "ops_total": sum(r["ops_total"] for r in results),
        "ops_failed": sum(r["ops_failed"] for r in results),
        "payload_pkts": payload,
        "violations": [v for r in results for v in r["violations"]],
    }


def _normalise(rep: dict, slowdown: float) -> None:
    """Divide the repetition's host times by the host's slowdown while it
    ran (see ``bench.HostSpeed``); the wall as the clock read it stays
    in ``raw_wall_s``."""
    rep["raw_wall_s"] = rep["wall_s"]
    rep["host_slowdown"] = slowdown
    rep["wall_s"] /= slowdown
    for times in (rep["phases"], rep["cell_wall_s"]):
        for key in times:
            times[key] /= slowdown


def _profiled(fn):
    """Run ``fn()`` under cProfile; return (result, wall, layer table)."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(profiler).stats
    return result, wall, {
        "layers": layers.bucket_profile(stats),
        "make_data_packet_calls": layers.calls_of(
            stats, "net.packet", "make_data_packet"),
    }


def run_sim_workload(job: dict, spans: Spans) -> dict:
    make_cells = workloads.CELLS[job["workload"]]
    # Untimed warm-up at smoke size: first-call costs (lazy imports,
    # code-object specialisation, allocator growth) are not what a
    # repetition measures.
    with spans.span("warmup") as warm:
        run_repetition(make_cells(job["seed"], True), spans, warm)
    cells = make_cells(job["seed"], job["smoke"])
    budget = Budget(job["seconds"], job["trace"])
    host = HostSpeed()
    reps = []
    while not budget.spent([r["raw_wall_s"] for r in reps]):
        gc.collect()
        rep = run_repetition(cells, spans)
        _normalise(rep, host.slowdown())
        reps.append(rep)
    out = {"reps": reps, "trace": None}
    if job["trace"]:
        gc.collect()
        _rep, wall, table = _profiled(lambda: run_repetition(cells, spans))
        table["traced_wall_s"] = wall
        table["untraced_wall_s"] = statistics.median(
            r["raw_wall_s"] for r in reps)
        out["trace"] = table
    return out


def _cli_main(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process with its table captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = repro_cli.main(argv)
    return code, buf.getvalue()


def run_cli_trace(job: dict, spans: Spans) -> dict:
    """The traced pass of a sweep workload.

    ``cli.main`` runs in-process with ``--jobs 1`` so that the runner,
    the cache, spec hashing, the merge and the export show in the
    profile (pool workers cannot be profiled from here).  The untraced
    in-process run before it is the like-for-like base of
    ``trace.overhead_x``.
    """
    scratch = job["scratch"]

    def argv(cache: str) -> list[str]:
        args = list(job["cli_args"])
        args[args.index("--jobs") + 1] = "1"
        path = os.path.join(scratch, cache)
        return args + ["--cache-dir", path, "--metrics-out", path + ".jsonl"]

    replay = job["workload"] == "sweep_replay"
    if replay:
        with spans.span("populate"):
            _cli_main(argv("traced"))
    with spans.span("cli:untraced") as base:
        code, _table = _cli_main(argv("traced" if replay else "untraced"))
    if code != 0:
        raise SystemExit(f"cli.main exited {code}")
    with spans.span("cli:traced"):
        (code, _table), wall, table = _profiled(
            lambda: _cli_main(argv("traced")))
    if code != 0:
        raise SystemExit(f"traced cli.main exited {code}")
    table["traced_wall_s"] = wall
    table["untraced_wall_s"] = spans.duration(base)
    return {"trace": table}


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    spans = Spans(job["workload"])
    if job["workload"] in workloads.CLI_WORKLOADS:
        out = run_cli_trace(job, spans)
    else:
        out = run_sim_workload(job, spans)
    out.update(import_s=IMPORT_S, spans=spans.rows)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
