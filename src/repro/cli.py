"""Command-line interface: run the paper's experiments or ad-hoc queries.

Usage::

    python -m repro figure7                 # regenerate Figure 7 (both panels)
    python -m repro figure8                 # regenerate Figure 8
    python -m repro extensions              # competitive AMs / spanning tree / priorities
    python -m repro query "SELECT * FROM R, T WHERE R.key = T.key" \
        --engine stems --policy benefit     # run a query on the built-in demo catalog
    python -m repro multi --queries 8 --stagger 4.0
                                            # N staggered queries over shared SteMs
    python -m repro multi --churn --duration 60 --arrival-rate 0.25 \
        --eviction time-window --window 200  # continuous-query churn service
    python -m repro multi --checkpoint-dir /tmp/ckpt --checkpoint-interval 5
                                            # durable run: WAL + periodic snapshots
    python -m repro recover /tmp/ckpt       # inspect a checkpoint directory
    python -m repro recover /tmp/ckpt --run # ...and resume the run from its cut
                                            # restore the engine and run it on
    python -m repro gauntlet                # the adversarial workload gauntlet
    python -m repro gauntlet --scenario skew --smoke --json out.json

The demo catalog used by ``query`` is the paper's Table 3 trio (R, S, T) with
a scan on R, index AMs on S, and both a scan and an index on T.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.bench.adversarial import (
    gauntlet_scenarios,
    gauntlet_summary,
    run_gauntlet,
)
from repro.bench.experiments import (
    index_probe_series,
    run_competitive_ams,
    run_figure7,
    run_figure8,
    run_prioritized,
    run_spanning_tree,
)
from repro.bench.report import comparison_summary
from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.engine.api import execute
from repro.engine.multi import run_churn, run_multi
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t


def demo_catalog() -> Catalog:
    """The paper's Table 3 sources wired with their access methods."""
    catalog = Catalog()
    catalog.add_table(make_source_r())
    catalog.add_table(make_source_s(250))
    catalog.add_table(make_source_t())
    catalog.add_scan("R", rate=50.0)
    catalog.add_index("S", ["x"], latency=1.6)
    catalog.add_index("S", ["y"], latency=1.6)
    catalog.add_scan("T", rate=6.7)
    catalog.add_index("T", ["key"], latency=0.2)
    return catalog


def _print_figure7(batch_size: int = 1) -> None:
    report = run_figure7(batch_size=batch_size)
    end = report.results["index-join"].completion_time
    times = [end * f for f in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)]
    print("Figure 7(i): results over virtual time")
    print(comparison_summary(
        {name: result.output_series for name, result in report.results.items()}, times
    ))
    print("\nFigure 7(ii): probes into the S index")
    print(comparison_summary(index_probe_series(report), times))


def _print_figure8(batch_size: int = 1) -> None:
    report = run_figure8(batch_size=batch_size)
    series = {name: result.output_series for name, result in report.results.items()}
    print("Figure 8(i): first 30 virtual seconds")
    print(comparison_summary(series, [5, 10, 15, 20, 25, 30]))
    end = report.results["index-join"].completion_time
    print("\nFigure 8(ii): full run")
    print(comparison_summary(series, [end * f for f in (0.2, 0.4, 0.6, 0.8, 1.0)]))


def _print_extensions() -> None:
    competitive = run_competitive_ams()
    print("Competitive AMs: completion "
          f"flaky-only={competitive.results['single-am-flaky'].completion_time:.1f}s, "
          f"competitive={competitive.results['competitive'].completion_time:.1f}s, "
          f"duplicates absorbed={competitive.notes['duplicates_absorbed_by_stems']}")
    spanning = run_spanning_tree()
    print("Spanning tree: A+B partials at t=10s "
          f"stems={spanning.results['stems'].partials_at(['A', 'B'], 10.0)}, "
          f"static={spanning.results['static-tree-through-C'].partials_at(['A', 'B'], 10.0)}")
    prioritized = run_prioritized()
    print("Priorities: mean interesting-result output time "
          f"{prioritized.notes['mean_priority_output_time[no-priority]']}s -> "
          f"{prioritized.notes['mean_priority_output_time[prioritized]']}s")


def _workload(args: argparse.Namespace):
    """The workload the ``multi``/``recover`` workload flags describe.

    A checkpoint holds the engine's state, not the base tables: ``recover
    --run`` re-streams the sources, so it rebuilds the workload from the
    same flags the original ``multi`` run was given.
    """
    if args.churn:
        return churn_workload(
            duration=args.duration,
            arrival_rate=args.arrival_rate,
            mean_lifetime=args.mean_lifetime,
            rows=args.rows,
            policy=args.policy,
            seed=args.seed,
        )
    return staggered_fleet_workload(
        n_queries=args.queries,
        stagger=args.stagger,
        rows=args.rows,
        policy=args.policy,
    )


#: The SteM bound ``--eviction`` applies when ``--window`` is not given.
DEFAULT_WINDOW = 200


def _engine_options(args: argparse.Namespace) -> dict:
    """The engine keywords ``--batch-size`` and ``--eviction/--window`` name
    (the entry point they reach builds the one config from them)."""
    return {
        "batch_size": args.batch_size,
        "stem_eviction": args.eviction,
        "stem_max_size": args.window
        if args.eviction in ("count", "reference-window") else None,
        "stem_window": args.window if args.eviction == "time-window" else None,
    }


def _print_evictions(args: argparse.Namespace, result) -> None:
    if args.eviction:
        evictions = sum(
            stem.get("evictions", 0) for stem in result.stem_stats.values()
        )
        print(f"Window eviction ({args.eviction}, {args.window}): "
              f"{evictions} rows evicted")


def _run_churn(args: argparse.Namespace) -> None:
    workload = _workload(args)
    result = run_churn(
        workload.events,
        workload.catalog,
        shared_stems=not args.private_stems,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        **_engine_options(args),
    )
    print(result.summary())
    stats = result.registry_stats
    if stats:
        print(
            f"Registry churn: {stats['stems']} SteMs created, "
            f"{stats['reclaimed']} reclaimed on retirement, "
            f"{stats['indexes_dropped']} per-query indexes dropped, "
            f"{stats['releases']} releases"
        )
    _print_evictions(args, result)


def _run_multi(args: argparse.Namespace) -> None:
    if args.churn:
        _run_churn(args)
        return
    workload = _workload(args)
    options = _engine_options(args)
    result = run_multi(
        workload.admissions,
        workload.catalog,
        shared_stems=not args.private_stems,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        **options,
    )
    print(result.summary())
    _print_evictions(args, result)
    if not args.private_stems and not args.no_baseline:
        # Show the sharing win against the private-SteM baseline.
        baseline = run_multi(
            workload.admissions, workload.catalog, shared_stems=False, **options
        )
        shared_inserts = result.stem_totals["insertions"]
        private_inserts = baseline.stem_totals["insertions"]
        print(
            f"Shared vs private SteMs: {shared_inserts} vs {private_inserts} "
            f"insertions ({private_inserts / max(shared_inserts, 1):.1f}x saved), "
            f"results identical: "
            f"{result.same_results(baseline)}"
        )


def _run_recover(args: argparse.Namespace) -> None:
    from repro.recovery import recover_state, restore_engine

    state = recover_state(args.checkpoint_dir)
    stored_rows = sum(len(table.rows) for table in state.tables.values())
    held = state.cut_counts()
    in_flight = sum(held[kind] for kind in ("ready", "blocked", "queued", "in_service"))
    print(f"Checkpoint directory: {args.checkpoint_dir}")
    print(f"  snapshot generation: {state.snapshot_seq} "
          f"(torn snapshots skipped: {state.torn_snapshots})")
    print(f"  cut at virtual time: {state.cut_time:g} "
          f"(next build timestamp {state.next_timestamp})")
    print(f"  shared SteMs: {len(state.tables)} holding {stored_rows} rows")
    print(f"  admissions logged: {len(state.admissions)} "
          f"({len(state.queries)} started by the cut, {len(state.retired)} retired)")
    print(f"  in-flight items in the cut: {in_flight} "
          f"({held['ready']} ready, {held['queued']} queued, "
          f"{held['in_service']} in service, {held['blocked']} blocked)")
    print(f"  pending lookups in the cut: {held['lookups_in_flight']} in flight, "
          f"{held['queued_keys']} queued")
    print(f"  results acknowledged: {state.total_emitted()} "
          f"({state.total_tail_acks()} in the WAL tail past the cut; "
          f"torn tail records truncated: {state.torn_wal_records})")
    if not args.run:
        return
    workload = _workload(args)
    restored = restore_engine(
        state,
        workload.catalog,
        churn_events=workload.events if args.churn else (),
        **_engine_options(args),
    )
    result = restored.run()
    print(f"\nRecovered run (resumed from the cut at {state.cut_time:g}):")
    print(result.summary())
    _print_evictions(args, result)
    suppressed = sum(
        res.eddy_stats.get("suppressed_emits", 0)
        for res in result.results.values()
    )
    print(f"  already-acknowledged results suppressed: {suppressed}")


def _run_gauntlet(args: argparse.Namespace) -> int:
    payload = run_gauntlet(
        names=args.scenario or None,
        smoke=args.smoke,
        bins=args.bins,
    )
    print(gauntlet_summary(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"gauntlet": payload}, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0 if payload["all_correct"] else 1


def _run_query(args: argparse.Namespace) -> None:
    result = execute(
        args.sql,
        demo_catalog(),
        engine=args.engine,
        policy=args.policy,
        batch_size=args.batch_size,
    )
    print(result.summary())
    if result.completion_time:
        for fraction in (0.25, 0.5, 0.75, 1.0):
            time = result.completion_time * fraction
            print(f"  t={time:8.1f}s  results={result.results_at(time)}")
    if result.is_aggregate:
        # GROUP BY output: the incremental aggregate table, not the tuple
        # stream (which for aggregate queries is just the build feed).
        print("  " + " | ".join(result.aggregate_labels))
        shown = result.aggregate_rows
        if args.show_rows:
            shown = shown[: args.show_rows]
        for row in shown:
            print("  " + " | ".join(repr(value) for value in row))
        if args.show_rows and len(result.aggregate_rows) > args.show_rows:
            print(f"  ... {len(result.aggregate_rows) - args.show_rows} more groups")
    elif args.show_rows:
        for row in result.rows()[: args.show_rows]:
            print(f"  {row}")


_BATCH_HELP = (
    "tuples the eddy routes per simulator event (1 = per-tuple routing; "
    ">1 batches by routing signature)"
)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The workload flags ``multi`` runs with and ``recover --run`` rebuilds
    from (see :func:`_workload`)."""
    parser.add_argument("--queries", type=int, default=8,
                        help="number of concurrent queries to admit")
    parser.add_argument("--stagger", type=float, default=4.0,
                        help="virtual seconds between query arrivals")
    parser.add_argument("--rows", type=int, default=250,
                        help="rows per base table")
    parser.add_argument("--policy", default="naive",
                        choices=["benefit", "naive", "lottery", "random"])
    parser.add_argument("--batch-size", type=int, default=1, help=_BATCH_HELP)
    parser.add_argument("--churn", action="store_true",
                        help="continuous-query mode: Poisson query arrivals "
                             "and lifetimes, dynamic admission and retirement "
                             "over the shared SteMs")
    parser.add_argument("--duration", type=float, default=40.0,
                        help="churn: virtual seconds of query arrivals")
    parser.add_argument("--arrival-rate", type=float, default=0.25,
                        help="churn: Poisson query-arrival rate (1/s)")
    parser.add_argument("--mean-lifetime", type=float, default=15.0,
                        help="churn: mean exponential query lifetime (s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="churn: workload RNG seed")
    parser.add_argument("--eviction", default=None,
                        choices=["count", "time-window", "reference-window"],
                        help="bound every SteM's state with this eviction policy")
    parser.add_argument("--window", type=int, default=None,
                        help="eviction bound (rows for count/reference-window, "
                             "build-timestamp ticks for time-window; needs "
                             f"--eviction; default {DEFAULT_WINDOW})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SteMs / adaptive query processing reproduction (ICDE 2003)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    figure7_parser = subparsers.add_parser("figure7", help="regenerate paper Figure 7")
    figure7_parser.add_argument("--batch-size", type=int, default=1, help=_BATCH_HELP)
    figure8_parser = subparsers.add_parser("figure8", help="regenerate paper Figure 8")
    figure8_parser.add_argument("--batch-size", type=int, default=1, help=_BATCH_HELP)
    subparsers.add_parser("extensions", help="run the extension experiments")
    query_parser = subparsers.add_parser("query", help="run a query on the demo catalog")
    query_parser.add_argument("sql", help="SELECT ... FROM ... WHERE ... text")
    query_parser.add_argument("--engine", default="stems",
                              choices=["stems", "eddy-joins", "static"])
    query_parser.add_argument("--policy", default="benefit",
                              choices=["benefit", "naive", "lottery", "random"])
    query_parser.add_argument("--show-rows", type=int, default=0,
                              help="print the first N result rows")
    query_parser.add_argument("--batch-size", type=int, default=1, help=_BATCH_HELP)
    multi_parser = subparsers.add_parser(
        "multi",
        help="run N staggered queries concurrently over shared SteMs (§2.1.4)",
    )
    _add_workload_args(multi_parser)
    multi_parser.add_argument("--private-stems", action="store_true",
                              help="give every query private SteMs (the ablation "
                                   "baseline) instead of sharing per table")
    multi_parser.add_argument("--no-baseline", action="store_true",
                              help="skip the private-SteM comparison run (which "
                                   "otherwise doubles the simulation work)")
    multi_parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                              help="make the run durable: write-ahead log every "
                                   "state change (and snapshot periodically) "
                                   "into DIR for crash recovery")
    multi_parser.add_argument("--checkpoint-interval", type=float, default=None,
                              metavar="SECONDS",
                              help="virtual seconds between snapshots (requires "
                                   "--checkpoint-dir; default: WAL-only, one "
                                   "final snapshot at shutdown)")
    recover_parser = subparsers.add_parser(
        "recover",
        help="inspect a checkpoint directory and optionally restore the run",
    )
    recover_parser.add_argument("checkpoint_dir",
                                help="checkpoint directory of a durable multi run")
    recover_parser.add_argument("--run", action="store_true",
                                help="restore the engine at the cut and run "
                                     "it on, suppressing the results "
                                     "acknowledged after the cut (default: "
                                     "only print the recovered cut)")
    _add_workload_args(recover_parser)
    gauntlet_parser = subparsers.add_parser(
        "gauntlet",
        help="run the adversarial workload gauntlet (hostile generators, "
             "differential oracles, adaptivity scorecard)",
    )
    gauntlet_parser.add_argument(
        "--scenario", action="append",
        choices=sorted(gauntlet_scenarios()),
        help="run only this scenario (repeatable; default: all)",
    )
    gauntlet_parser.add_argument(
        "--smoke", action="store_true",
        help="CI-smoke sizes: a few hundred routed tuples per scenario",
    )
    gauntlet_parser.add_argument(
        "--bins", type=int, default=12,
        help="time buckets in the routing-share series")
    gauntlet_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full scorecard payload as JSON")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("multi", "recover"):
        if args.eviction is None and args.window is not None:
            parser.error("--window bounds an eviction policy: pass --eviction too")
        if args.window is None:
            args.window = DEFAULT_WINDOW
    if args.command == "figure7":
        _print_figure7(batch_size=args.batch_size)
    elif args.command == "figure8":
        _print_figure8(batch_size=args.batch_size)
    elif args.command == "extensions":
        _print_extensions()
    elif args.command == "query":
        _run_query(args)
    elif args.command == "multi":
        _run_multi(args)
    elif args.command == "recover":
        _run_recover(args)
    elif args.command == "gauntlet":
        return _run_gauntlet(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
