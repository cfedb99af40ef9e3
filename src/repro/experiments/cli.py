"""Command-line entry point: ``dcp-experiment <key> [--preset NAME]``.

Sweep-aware experiments (those declaring sweep points, see
:mod:`repro.experiments.registry`) execute through
:class:`repro.runner.ExperimentRunner`: ``--jobs N`` fans their points
out over N processes, and completed points are cached by spec hash in
``--cache-dir`` (default ``~/.cache/repro``) so re-runs are free.
Serial, parallel and cached runs produce bit-identical results.

Campaigns (:mod:`repro.campaigns`) run through the same machinery:
``dcp-experiment campaign <name|path>`` compiles a declarative spec —
library name or JSON/py-literal file — to sweep points and executes it
exactly like a figure sweep (same cache, same ``--jobs``, same telemetry
flags); ``dcp-experiment campaign list`` enumerates the library.

Telemetry export:

* ``--metrics-out FILE`` writes every point's counters/gauges/histograms
  (plus sampled time series: every gauge with ``--sample-interval-ns``,
  otherwise only a chaos point's per-flow delivery series) as JSONL —
  validate with ``python -m repro.obs.schema FILE``;
* ``--trace-out FILE`` enables event tracing inside every point and
  writes the records as JSONL;
* ``--breakdown`` enables span tracing (:mod:`repro.obs.spans`) and
  prints a per-flow FCT attribution table after each experiment —
  queue wait vs serialization vs propagation vs host vs retx/pause
  stalls vs reorder holds (with ``--metrics-out``, the breakdown rows
  are appended to the JSONL as ``breakdown`` records);
* ``--perfetto-out FILE`` also enables span tracing and writes every
  point's packet-lifecycle spans as one Chrome trace-event file —
  load it at https://ui.perfetto.dev, validate with
  ``python -m repro.obs.spans --validate FILE``.

``--metrics-out`` alone changes nothing about the computation (counters
are always on), so it serves from the same cache entries as an
unflagged run.  Tracing, sampling and span recording *do* change the
cache key: a traced point is a different computation.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack

from repro.experiments.registry import (REGISTRY, attach_runner_telemetry,
                                        run_experiment)
from repro.obs import (metrics, spans, write_breakdown_jsonl,
                       write_metrics_jsonl, write_perfetto, write_trace_jsonl)
from repro.obs.export import tracer_payload, write_campaign_jsonl
from repro.obs.registry import MetricsRegistry
from repro.runner import ExperimentRunner, ResultCache
from repro.sim import trace


#: Experiments whose ``run()`` takes the flag; ``all`` hands it to
#: these and run_experiment's signature filter drops it for the rest.
#: Tables, not ``inspect``: checking must not import experiment modules.
TAKES_CHAOS = ("robustness",)
TAKES_FIDELITY = ("fig13", "fig14")


def build_telemetry(args: argparse.Namespace) -> dict | None:
    """The ``telemetry`` param injected into sweep points, or None."""
    telemetry: dict = {}
    if args.trace_out:
        telemetry["trace"] = {"max_records": args.trace_max_records}
    if args.breakdown or args.perfetto_out:
        telemetry["spans"] = {"max_spans": args.span_max_spans}
    if args.sample_interval_ns > 0:
        telemetry["sample_interval_ns"] = args.sample_interval_ns
    return telemetry or None


def build_runner(args: argparse.Namespace) -> ExperimentRunner:
    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache,
                        max_mb=args.cache_max_mb)
    return ExperimentRunner(jobs=args.jobs, cache=cache,
                            telemetry=build_telemetry(args))


def print_campaign_list() -> None:
    """Enumerate the built-in campaign library (no compilation needed:
    the grid size is the product of the group value counts)."""
    from repro.campaigns import CAMPAIGNS
    print(f"{'campaign':22s} {'points':6s} title")
    for name in sorted(CAMPAIGNS):
        spec = CAMPAIGNS[name]
        count = 1
        for group in spec["groups"]:
            count *= len(group["values"])
        print(f"{name:22s} {count:<6d} {spec.get('title', '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dcp-experiment",
        description="Regenerate a table or figure from the DCP paper.")
    parser.add_argument("experiment", nargs="?", default="list",
                        help="experiment key (e.g. fig13), 'campaign', or "
                             "'list'/'all'")
    parser.add_argument("target", nargs="?", default=None,
                        help="with 'campaign': a library campaign name, a "
                             "JSON/py-literal spec file, or 'list'")
    parser.add_argument("--preset", default="default",
                        choices=("quick", "default", "full"),
                        help="simulation scale preset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep-aware experiments "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: ~/.cache/repro "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="bound the result cache directory; stores "
                             "beyond the budget evict the oldest entries "
                             "(default: unbounded)")
    parser.add_argument("--fidelity", default=None,
                        choices=("packet", "hybrid"),
                        help="simulation fidelity for experiments that "
                             "support it (fig13/fig14): 'packet' simulates "
                             "every byte, 'hybrid' runs uncontended flows "
                             "analytically (repro.sim.fidelity)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="wipe the result cache, then proceed (or exit "
                             "if no experiment was given)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write per-point metrics as JSONL "
                             "(validate with python -m repro.obs.schema)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="enable event tracing and write records as JSONL")
    parser.add_argument("--trace-max-records", type=int, default=100_000,
                        metavar="N",
                        help="per-point trace record cap (default: 100000)")
    parser.add_argument("--breakdown", action="store_true",
                        help="record packet-lifecycle spans and print a "
                             "per-flow FCT attribution table (queue / "
                             "serialization / propagation / host / retx / "
                             "pause / reorder)")
    parser.add_argument("--perfetto-out", default=None, metavar="FILE",
                        help="record packet-lifecycle spans and write them "
                             "as one Chrome trace-event file (open at "
                             "ui.perfetto.dev; validate with "
                             "python -m repro.obs.spans --validate)")
    parser.add_argument("--span-max-spans", type=int, default=1_000_000,
                        metavar="N",
                        help="per-point span record cap (default: 1000000)")
    parser.add_argument("--sample-interval-ns", type=int, default=0,
                        metavar="NS",
                        help="sample every registered gauge every NS of "
                             "simulated time into exported series (default: "
                             "off; chaos points then sample only each "
                             "flow's delivered bytes)")
    parser.add_argument("--chaos", default=None, metavar="SCENARIO",
                        help="restrict the robustness experiment to one "
                             "named failure scenario ('list' to enumerate)")
    parser.add_argument("--profile", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="run under cProfile; print cumulative stats, or "
                             "dump raw pstats to PATH if given (requires "
                             "--jobs 1: workers cannot be profiled)")
    args = parser.parse_args(argv)
    valid = ("list", "all", "campaign", *REGISTRY)
    if args.experiment not in valid:
        parser.error(f"unknown experiment {args.experiment!r} "
                     f"(choose from {', '.join(valid)})")
    if args.chaos is not None:
        from repro.chaos.scenarios import SCENARIOS
        if args.chaos == "list":
            print(f"{'scenario':20s} events")
            for name, scenario in SCENARIOS.items():
                kinds = ", ".join(e["kind"] for e in scenario["events"]) or "-"
                print(f"{name:20s} {kinds}")
            return 0
        if args.chaos not in SCENARIOS:
            parser.error(f"unknown chaos scenario {args.chaos!r} "
                         f"(choose from {', '.join(SCENARIOS)}, or 'list')")
    for flag, value, takers in (("--chaos", args.chaos, TAKES_CHAOS),
                                ("--fidelity", args.fidelity, TAKES_FIDELITY)):
        if value is not None and args.experiment not in (*takers, "all"):
            parser.error(f"{flag} does not apply to {args.experiment!r} "
                         f"(accepted by {', '.join(takers)}, or 'all')")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.cache_max_mb is not None and args.cache_max_mb <= 0:
        parser.error("--cache-max-mb must be > 0")
    if args.sample_interval_ns < 0:
        parser.error("--sample-interval-ns must be >= 0")
    if args.profile is not None and args.jobs != 1:
        parser.error("--profile requires --jobs 1 (worker processes "
                     "run the simulation; the parent's profile would "
                     "show only dispatch overhead)")

    if args.experiment != "campaign" and args.target is not None:
        parser.error("a second positional argument only applies to "
                     "'campaign' (e.g. dcp-experiment campaign "
                     "incast_backpressure)")

    if args.clear_cache:
        cache = ResultCache(root=args.cache_dir)
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        if args.experiment == "list":
            return 0

    if args.experiment == "list":
        print(f"{'key':10s} {'paper':8s} sim  sweep  description")
        for key, entry in REGISTRY.items():
            print(f"{key:10s} {entry.paper_ref:8s} "
                  f"{'yes' if entry.simulation else 'no ':3s}  "
                  f"{'yes' if entry.has_sweep() else 'no ':5s}  "
                  f"{entry.description}")
        print()
        print_campaign_list()
        return 0

    #: campaign-key -> CompiledCampaign for runs launched via the
    #: campaign subcommand (drives the 'campaign' JSONL record and the
    #: compiled-points execution path below).
    campaigns_by_key: dict[str, "object"] = {}
    if args.experiment == "campaign":
        if args.target is None or args.target == "list":
            print_campaign_list()
            return 0
        from repro.campaigns import (CampaignError, compile_campaign,
                                     load_campaign)
        try:
            compiled = compile_campaign(load_campaign(args.target),
                                        args.preset)
        except (CampaignError, ValueError) as exc:
            parser.error(f"campaign {args.target!r}: {exc}")
        campaigns_by_key[compiled.key] = compiled

    runner = build_runner(args)
    spans_on = args.breakdown or bool(args.perfetto_out)
    exporting = args.metrics_out or args.trace_out or spans_on
    metrics_lines = trace_lines = 0
    #: key -> {"<experiment>/<point>": span payload}, flattened into one
    #: Perfetto trace at exit so multi-experiment runs stay one file.
    perfetto_points: dict[str, dict] = {}
    profiler = None
    if args.profile is not None:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()

    def flush_perfetto() -> None:
        with open(args.perfetto_out, "w") as fh:
            events = write_perfetto(fh, perfetto_points)
        print(f"[perfetto: {events} events -> {args.perfetto_out}]")

    # Both export handles live on one ExitStack: if the second open()
    # raises, the stack unwinds the first, and any exception inside the
    # loop closes both (the old two-bare-opens form leaked metrics_fh
    # whenever the trace_fh open failed).
    try:
        with ExitStack() as stack:
            metrics_fh = (stack.enter_context(open(args.metrics_out, "w"))
                          if args.metrics_out else None)
            trace_fh = (stack.enter_context(open(args.trace_out, "w"))
                        if args.trace_out else None)
            keys = (list(REGISTRY) if args.experiment == "all"
                    else list(campaigns_by_key) if campaigns_by_key
                    else [args.experiment])
            for key in keys:
                start = time.time()
                # Non-sweep (analytic / inline) experiments never reach
                # a point runner; give them a process-global
                # registry/tracer so their activity is still captured.
                global_reg = global_tracer = global_spans = None
                prev_reg, prev_tracer = metrics.active(), trace.active()
                prev_spans = spans.active()
                if exporting:
                    global_reg = MetricsRegistry()
                    metrics.install(global_reg)
                    if trace_fh is not None:
                        global_tracer = trace.Tracer(
                            max_records=args.trace_max_records)
                        trace.install(global_tracer)
                    if spans_on:
                        global_spans = spans.SpanTracker(
                            max_spans=args.span_max_spans)
                        spans.install(global_spans)
                try:
                    if key in campaigns_by_key:
                        from repro.campaigns import run_compiled
                        result = run_compiled(campaigns_by_key[key], runner)
                    else:
                        # ``chaos`` and ``fidelity`` only reach run()
                        # signatures that accept them (under ``all``).
                        kwargs = {}
                        if args.fidelity is not None:
                            kwargs["fidelity"] = args.fidelity
                        result = run_experiment(key, preset=args.preset,
                                                runner=runner,
                                                chaos=args.chaos, **kwargs)
                finally:
                    metrics.install(prev_reg)
                    trace.install(prev_tracer)
                    spans.install(prev_spans)
                result.print_table()
                if args.breakdown:
                    print(result.format_breakdown())
                    print()
                print(f"[{key} finished in {time.time() - start:.1f}s]\n")

                # Metrics reach result.metrics whether or not an export
                # flag was set, so programmatic callers (and tests) see
                # the same result object either way; the JSONL export
                # below reads from the result rather than deciding the
                # attachment.
                swept = (runner.last_experiment == key)
                attach_runner_telemetry(result, runner, key)
                if not result.metrics and global_reg is not None:
                    result.metrics = {"run": global_reg.to_payload()}
                if metrics_fh is not None:
                    if key in campaigns_by_key:
                        compiled = campaigns_by_key[key]
                        metrics_lines += write_campaign_jsonl(
                            metrics_fh, key, compiled.name,
                            [{"name": g, "axis": a}
                             for g, a in compiled.groups],
                            [p.point_id for p in compiled.points])
                    metrics_lines += write_metrics_jsonl(
                        metrics_fh, key, result.metrics)
                    if args.breakdown and swept and runner.last_breakdowns:
                        metrics_lines += write_breakdown_jsonl(
                            metrics_fh, key, runner.last_breakdowns)
                if trace_fh is not None:
                    by_point = (runner.last_traces
                                if swept and runner.last_traces
                                else {"run": tracer_payload(global_tracer)})
                    trace_lines += write_trace_jsonl(trace_fh, key, by_point)
                if args.perfetto_out:
                    by_point = (runner.last_spans
                                if swept and runner.last_spans
                                else {"run": global_spans.to_payload()})
                    for point, payload in by_point.items():
                        perfetto_points[f"{key}/{point}"] = payload
    except BaseException:
        # A failure partway through (e.g. experiment 7 of 'all') must
        # not discard the spans already collected: flush what we have so
        # the partial trace is inspectable.
        if args.perfetto_out and perfetto_points:
            flush_perfetto()
        raise
    finally:
        if profiler is not None:
            profiler.disable()
    if profiler is not None:
        import pstats
        if args.profile == "-":
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(30)
        else:
            profiler.dump_stats(args.profile)
            print(f"[profile: raw pstats -> {args.profile} "
                  f"(inspect with python -m pstats)]")
    if args.metrics_out:
        print(f"[metrics: {metrics_lines} records -> {args.metrics_out}]")
    if args.trace_out:
        print(f"[trace: {trace_lines} records -> {args.trace_out}]")
    if args.perfetto_out:
        flush_perfetto()
    stats = runner.cache.stats()
    if runner.cache.enabled and (stats["hits"] or stats["misses"]):
        print(f"[runner: {runner.simulations_executed} simulations executed, "
              f"{stats['hits']} cache hits; cache at {runner.cache.root}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
