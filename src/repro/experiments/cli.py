"""Command-line entry point: ``dcp-experiment <key> [--preset NAME]``.

Every experiment declares sweep points (see
:mod:`repro.experiments.registry`) and executes through
:class:`repro.runner.runner.ExperimentRunner`: ``--jobs N`` fans its
points out over N processes, and completed points are cached by spec
hash in ``--cache-dir`` (default ``~/.cache/repro``) so re-runs are
free.  Serial, parallel and cached runs produce bit-identical results.

Campaigns (:mod:`repro.campaigns`) run through the same machinery:
``dcp-experiment campaign <name|path>`` compiles a declarative spec —
library name or JSON/py-literal file — to sweep points and executes it
exactly like a figure sweep (same cache, same ``--jobs``, same telemetry
flags); ``dcp-experiment campaign list`` enumerates the library.
A key and a campaign both run through
:func:`repro.experiments.registry.run_sweep`, and every export below
reads the result it returns, never the runner.

Telemetry export:

* ``--metrics-out FILE`` writes every point's counters/gauges/histograms
  (plus sampled time series: every gauge with ``--sample-interval-ns``,
  otherwise only a chaos point's per-flow delivery series) as JSONL —
  validate with ``python -m repro.obs.schema FILE``;
* ``--breakdown`` enables span tracing (:mod:`repro.obs.spans`) and
  prints a per-flow FCT attribution table after each experiment —
  queue wait vs serialization vs propagation vs host vs retx/pause
  stalls vs reorder holds (with ``--metrics-out``, the breakdown rows
  are appended to the JSONL as ``breakdown`` records);
* ``--perfetto-out FILE`` also enables span tracing and writes every
  point's packet-lifecycle spans and event markers (drops, trims, HO
  turnarounds, retransmissions, timeouts, hop repairs, PFC and failure
  events) as one Chrome trace-event file — load it at
  https://ui.perfetto.dev, count it by kind with
  ``python -m repro.obs.spans FILE``, validate with
  ``python -m repro.obs.schema FILE``.

Both span flags record under one per-point budget,
``--span-max-spans``.  ``--metrics-out`` alone changes nothing about
the computation (counters are always on), so it serves from the same
cache entries as an unflagged run.  Sampling and span recording *do*
change the cache key: a traced point is a different computation.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from functools import partial

from repro.experiments.registry import REGISTRY, run_experiment, run_sweep
from repro.obs.export import (write_breakdown_jsonl, write_campaign_jsonl,
                              write_metrics_jsonl)
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner


def build_telemetry(args: argparse.Namespace) -> dict | None:
    """The ``telemetry`` param injected into sweep points, or None."""
    telemetry: dict = {}
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
    from repro.campaigns.library import CAMPAIGNS
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
                        help="worker processes for sweep points "
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
    parser.add_argument("--clear-cache", action="store_true",
                        help="wipe the result cache, then proceed (or exit "
                             "if no experiment was given)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write per-point metrics as JSONL "
                             "(validate with python -m repro.obs.schema)")
    parser.add_argument("--breakdown", action="store_true",
                        help="record packet-lifecycle spans and print a "
                             "per-flow FCT attribution table (queue / "
                             "serialization / propagation / host / retx / "
                             "pause / reorder)")
    parser.add_argument("--perfetto-out", default=None, metavar="FILE",
                        help="record packet-lifecycle spans and event "
                             "markers and write them as one Chrome "
                             "trace-event file (open at "
                             "ui.perfetto.dev; validate with "
                             "python -m repro.obs.schema)")
    parser.add_argument("--span-max-spans", type=int, default=1_000_000,
                        metavar="N",
                        help="per-point cap on spans plus markers "
                             "(default: 1000000)")
    parser.add_argument("--sample-interval-ns", type=int, default=0,
                        metavar="NS",
                        help="sample every registered gauge every NS of "
                             "simulated time into exported series (default: "
                             "off; chaos points then sample only each "
                             "flow's delivered bytes)")
    parser.add_argument("--chaos", default=None, metavar="SCENARIO",
                        help="restrict the robustness experiment to one "
                             "named failure scenario ('list' to enumerate)")
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
        if args.experiment not in ("robustness", "all"):
            parser.error(f"--chaos does not apply to {args.experiment!r} "
                         "(accepted by robustness, or 'all')")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.cache_max_mb is not None and args.cache_max_mb <= 0:
        parser.error("--cache-max-mb must be > 0")
    if args.sample_interval_ns < 0:
        parser.error("--sample-interval-ns must be >= 0")

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
        print(f"{'key':10s} {'paper':8s} sim  description")
        for key, entry in REGISTRY.items():
            print(f"{key:10s} {entry.paper_ref:8s} "
                  f"{'yes' if entry.simulation else 'no ':3s}  "
                  f"{entry.description}")
        print()
        print_campaign_list()
        return 0

    #: The campaign subcommand's CompiledCampaign: its points and bound
    #: merge run through run_sweep like a key's, plus a 'campaign' JSONL
    #: header record.
    compiled = None
    if args.experiment == "campaign":
        if args.target is None or args.target == "list":
            print_campaign_list()
            return 0
        from repro.campaigns.compiler import (CampaignError,
                                              compile_campaign,
                                              merge_campaign)
        from repro.campaigns.library import load_campaign
        try:
            compiled = compile_campaign(load_campaign(args.target),
                                        args.preset)
        except (CampaignError, ValueError) as exc:
            parser.error(f"campaign {args.target!r}: {exc}")

    runner = build_runner(args)
    metrics_lines = 0
    #: key -> {"<experiment>/<point>": span payload}, flattened into one
    #: Perfetto trace at exit so multi-experiment runs stay one file.
    perfetto_points: dict[str, dict] = {}

    def flush_perfetto() -> None:
        from repro.obs.spans import write_perfetto   # only spans need it
        with open(args.perfetto_out, "w") as fh:
            events = write_perfetto(fh, perfetto_points)
        print(f"[perfetto: {events} events -> {args.perfetto_out}]")

    try:
        with (open(args.metrics_out, "w") if args.metrics_out
              else nullcontext()) as metrics_fh:
            keys = (list(REGISTRY) if args.experiment == "all"
                    else [compiled.key] if compiled is not None
                    else [args.experiment])
            for key in keys:
                start = time.time()
                if compiled is not None:
                    result = run_sweep(key, compiled.points,
                                       partial(merge_campaign, compiled),
                                       runner)
                else:
                    # Under ``all``, ``--chaos`` reaches robustness only.
                    opts = ({"chaos": args.chaos}
                            if key == "robustness" and args.chaos is not None
                            else {})
                    result = run_experiment(key, preset=args.preset,
                                            runner=runner, **opts)
                result.print_table()
                if args.breakdown:
                    print(result.format_breakdown())
                    print()
                print(f"[{key} finished in {time.time() - start:.1f}s]\n")

                # The exports read the blocks run_sweep attached from
                # the points' payloads (cached ones carry them too).
                if metrics_fh is not None:
                    if compiled is not None:
                        metrics_lines += write_campaign_jsonl(
                            metrics_fh, key, compiled.name,
                            list(compiled.groups),
                            [p.point_id for p in compiled.points])
                    metrics_lines += write_metrics_jsonl(
                        metrics_fh, key, result.metrics)
                    if args.breakdown:
                        metrics_lines += write_breakdown_jsonl(
                            metrics_fh, key, result.breakdown)
                if args.perfetto_out:
                    for point, payload in result.spans.items():
                        perfetto_points[f"{key}/{point}"] = payload
    except BaseException:
        # A failure partway through (e.g. experiment 7 of 'all') must
        # not discard the spans already collected: flush what we have so
        # the partial trace is inspectable.
        if args.perfetto_out and perfetto_points:
            flush_perfetto()
        raise
    if args.metrics_out:
        print(f"[metrics: {metrics_lines} records -> {args.metrics_out}]")
    if args.perfetto_out:
        flush_perfetto()
    stats = runner.cache.stats()
    if runner.cache.enabled and (stats["hits"] or stats["misses"]):
        print(f"[runner: {runner.simulations_executed} simulations executed, "
              f"{stats['hits']} cache hits; cache at {runner.cache.root}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
