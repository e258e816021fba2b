"""Per-layer metrics: counts from the engine's own ``stats``, times from the trace.

Counts are read from the counters the engine already keeps (they are exact
and cost nothing); the tracer supplies what the engine does not count and
every time.  :func:`count_mismatches` holds the two against each other, so a
tracer that misses a call — or an engine counter that drifts — fails the
traced run instead of skewing a metric quietly.
"""

from __future__ import annotations

from collections import Counter

from .trace import Tracer
from .workloads import Outcome, Prepared


def _query_stats(engine, result):
    """``(eddy stats, module stats)`` per query of one engine incarnation.

    From the final result when the run completed (it also holds retired
    queries); from the live eddies when the run was killed.
    """
    if result is not None:
        for query in result.results.values():
            yield query.eddy_stats, query.module_stats
        return
    for query_id in engine.active:
        eddy = engine.eddy_of(query_id)
        modules = {name: module.stats for name, module in eddy.modules.items()}
        modules["destination-cache"] = eddy.resolver.cache_stats
        yield eddy.stats, modules


def engine_counts(outcome: Outcome) -> Counter:
    """The engine's counters, summed over queries, SteMs and incarnations."""
    counts: Counter = Counter()
    for engine in outcome.engines:
        result = outcome.result if engine is outcome.engines[-1] else None
        counts["sim.events"] += engine.simulator.executed_events
        aggregates = {}
        for eddy_stats, module_stats in _query_stats(engine, result):
            for name in ("route_events", "routings", "blocked_offers", "suppressed_emits"):
                counts[f"eddy.{name}"] += eddy_stats[name]
            for name, stats in module_stats.items():
                if name == "destination-cache":
                    counts["constraints.cache_hits"] += stats["hits"]
                    counts["constraints.cache_misses"] += stats["misses"]
                elif name.startswith("aggregate:"):
                    # A shared module is reported by each of its owners.
                    aggregates[name] = stats
                else:
                    counts["modules.items"] += int(stats["items"])
                    counts["modules.index_lookups"] += int(stats.get("lookups", 0))
                    counts["modules.selection_passed"] += stats.get("passed", 0)
                    counts["modules.selection_dropped"] += stats.get("dropped", 0)
        for stats in aggregates.values():
            for name in ("inserted", "bootstrapped", "retracted", "minmax_recomputes"):
                counts[f"aggregates.{name}"] += stats.get(name, 0)
        stems = (
            result.stem_stats.values()
            if result is not None
            else [stem.stats for stem in engine.registry.stems.values()]
        )
        for stats in stems:
            for name in ("builds", "duplicates", "probes", "matches", "evictions"):
                counts[f"stem.{name}"] += stats[name]
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _dispatches(tracer: Tracer) -> int:
    return sum(
        entry[0] for name, entry in tracer.totals.items() if ".dispatch." in name
    )


def count_mismatches(tracer: Tracer, counts: Counter, admitted: int) -> list[str]:
    """Where the trace's call counts disagree with the engine's counters."""
    pairs = {
        "sim.events": _dispatches(tracer),
        "stem.builds": tracer.calls("stem.SteM.build"),
        "stem.insertions": tracer.counts["stem.insertions"],
        "stem.probes": tracer.calls("stem.SteM.probe", "stem.SteM.probe_with_plan"),
        "stem.evictions": tracer.counts["stem.evictions"],
        "aggregates.inserted": tracer.calls("aggregates.AggregateState.insert"),
        "aggregates.retracted": tracer.calls("aggregates.AggregateState.retract"),
        "engine.admits": tracer.calls("engine.MultiQueryEngine.admit"),
    }
    expected = Counter(counts)
    expected["stem.insertions"] = counts["stem.builds"] - counts["stem.duplicates"]
    expected["aggregates.inserted"] += counts["aggregates.bootstrapped"]
    expected["engine.admits"] = admitted
    return [
        f"{name}: trace counted {traced}, engine counted {expected[name]}"
        for name, traced in pairs.items()
        if traced != expected[name]
    ]


def layer_metrics(
    prepared: Prepared,
    outcome: Outcome,
    counts: Counter,
    tracer: Tracer,
    traced_s: float,
    untraced_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name.

    ``counts`` is :func:`engine_counts` of the outcome.
    """
    self_s = tracer.layer_self_s()
    source_rows = prepared.source_rows
    constraints = (
        "constraints.ConstraintChecker.destinations",
        "constraints.ConstraintChecker.destinations_for_signature",
        "constraints.ConstraintChecker.ready_for_output",
    )
    stem_build = ("stem.SteM.build", "stem.SteM.build_batch", "stem.SteM.build_eot")
    stem_probe = ("stem.SteM.probe", "stem.SteM.probe_with_plan", "stem.SteM.probe_batch")
    wal = (
        "recovery.WriteAheadLog.append",
        "recovery.WriteAheadLog.log_emit",
        "recovery.WriteAheadLog.flush",
    )
    return {
        "sim.events": counts["sim.events"],
        "sim.events_per_source_row": _ratio(counts["sim.events"], source_rows),
        "sim.schedules": tracer.calls("sim.Simulator.schedule", "sim.Simulator.schedule_at"),
        "sim.cancels": tracer.calls("sim.Simulator.cancel"),
        "sim.pending_peak": tracer.pending_peak,
        "sim.self_s": self_s.get("sim", 0.0),
        "eddy.route_events": counts["eddy.route_events"],
        "eddy.routings": counts["eddy.routings"],
        "eddy.tuples_per_route_event": _ratio(
            counts["eddy.routings"], counts["eddy.route_events"]
        ),
        "eddy.to_eddy_calls": tracer.calls("eddy.Eddy.to_eddy"),
        "eddy.blocked_offers": counts["eddy.blocked_offers"],
        "eddy.self_s": self_s.get("eddy", 0.0),
        "constraints.calls": tracer.calls(*constraints),
        "constraints.cache_hit_ratio": _ratio(
            counts["constraints.cache_hits"],
            counts["constraints.cache_hits"] + counts["constraints.cache_misses"],
        ),
        "constraints.self_s": self_s.get("constraints", 0.0),
        "policies.calls": tracer.layer_calls("policies"),
        "policies.self_s": self_s.get("policies", 0.0),
        "modules.items": counts["modules.items"],
        "modules.selection_pass_ratio": _ratio(
            counts["modules.selection_passed"],
            counts["modules.selection_passed"] + counts["modules.selection_dropped"],
        ),
        "modules.index_lookups": counts["modules.index_lookups"],
        "modules.self_s": self_s.get("modules", 0.0),
        "stem.builds": counts["stem.builds"],
        "stem.insertions": counts["stem.builds"] - counts["stem.duplicates"],
        "stem.duplicate_ratio": _ratio(counts["stem.duplicates"], counts["stem.builds"]),
        "stem.build_self_s": tracer.self_s(*stem_build),
        "stem.probes": counts["stem.probes"],
        "stem.matches_per_probe": _ratio(counts["stem.matches"], counts["stem.probes"]),
        "stem.probe_self_s": tracer.self_s(*stem_probe),
        "stem.evictions": counts["stem.evictions"],
        "stem.evict_self_s": tracer.self_s("stem.SteM.evict"),
        "stem.rows_resident_peak": tracer.rows_resident_peak,
        "tuples.extended_calls": tracer.calls("tuples.QTuple.extended"),
        "tuples.self_s": self_s.get("tuples", 0.0),
        "aggregates.inserted": counts["aggregates.inserted"],
        "aggregates.retracted": counts["aggregates.retracted"],
        "aggregates.minmax_recomputes": counts["aggregates.minmax_recomputes"],
        "aggregates.self_s": self_s.get("aggregates", 0.0),
        "aggregates.readout_s": tracer.total_s("aggregates.AggregateState.result_rows"),
        "recovery.wal_records": outcome.recovery.get("wal_records", 0),
        "recovery.wal_flushes": outcome.recovery.get("wal_flushes", 0),
        "recovery.wal_bytes_per_source_row": _ratio(
            outcome.recovery.get("wal_bytes", 0), source_rows
        ),
        "recovery.wal_self_s": tracer.self_s(*wal),
        "recovery.snapshots": outcome.recovery.get("snapshots", 0),
        "recovery.snapshot_bytes": outcome.recovery.get("snapshot_bytes", 0),
        "recovery.snapshot_self_s": tracer.self_s(
            "recovery.CheckpointManager.take_checkpoint", "recovery.SnapshotStore.write"
        ),
        "recovery.recover_s": tracer.total_s("recovery.recover_state"),
        "recovery.replay_s": tracer.total_s("recovery.replay"),
        "recovery.suppressed_emits": counts["eddy.suppressed_emits"],
        "engine.admits": tracer.calls("engine.MultiQueryEngine.admit"),
        "engine.admit_self_s": tracer.self_s("engine.MultiQueryEngine.admit"),
        "engine.retires": tracer.calls("engine.MultiQueryEngine.retire"),
        "engine.retire_self_s": tracer.self_s("engine.MultiQueryEngine.retire"),
        "engine.collect_s": tracer.self_s("engine.MultiQueryEngine.run"),
        "query.parse_s": tracer.total_s("query.parse_query"),
        "query.layout_s": tracer.total_s("query.PlanLayout.__init__"),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        "trace.unattributed_share": _ratio(
            tracer.self_s("bench.repetition"), tracer.total_s("bench.repetition")
        ),
    }
