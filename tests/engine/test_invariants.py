"""Per-event invariants over every benchmark workload builder.

Each builder in :mod:`repro.bench.workloads` runs at a small size under
each routing policy, through :class:`~repro.engine.multi.MultiQueryEngine`
(a single-query builder is a one-admission fleet), with a checker on
``Simulator.after_event_hook``.  The checker needs no engine option: it
reads the clock and each live query's output list between events.

At every event:

* virtual time never decreases;
* every tuple or match run waiting in a live query's ready queue or module
  queues is on that query's layout (tuples are born on it and never
  re-encoded);
* a time-windowed SteM holds only rows built inside its window;
* no output appended since the previous event repeats an identity the
  query already emitted.  Over bounded SteMs a row that left the window
  and is delivered again joins its old partners again (ROADMAP item 2), so
  the bounded churn run counts such repeats instead of failing on them.

At quiesce:

* no query quarantined a tuple: the builders' data is clean, so a
  quarantine here is an engine exception swallowed as poison data;
* every join query's result multiset equals the brute-force oracle (for
  the bounded churn run: every result is an oracle result);
* every GROUP BY panel equals a recompute over its SteM's resident rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import pytest

from repro.bench import workloads
from repro.core.tuples import MatchRun, QTuple
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from tests.conftest import oracle_identities
from tests.helpers import dashboard_workload, shared_tables_mixed_workload

POLICIES = ["naive", "benefit", "lottery", "random"]


@dataclass
class Run:
    """A builder's catalog and queries, wired onto an engine."""

    engine: MultiQueryEngine
    catalog: object
    queries: dict
    #: The SteMs' time window; None for unbounded SteMs.
    window: float | None = None


def single(workload, policy):
    admission = QueryAdmission(
        workload.query,
        query_id=workload.name,
        policy=policy,
        preferences=workload.preferences,
    )
    engine = MultiQueryEngine(
        [admission], workload.catalog, cost_model=workload.cost_model
    )
    return Run(engine, workload.catalog, {workload.name: workload.query})


def fleet(workload):
    engine = MultiQueryEngine(workload.admissions, workload.catalog)
    queries = {admission.query_id: admission.query for admission in workload.admissions}
    return Run(engine, workload.catalog, queries)


CHURN_WINDOW = 40


def bounded_churn(policy):
    workload = workloads.churn_workload(
        duration=12.0, arrival_rate=0.5, mean_lifetime=6.0, rows=50,
        r_scan_rate=60.0, t_scan_rate=40.0, t_index_latency=0.05,
        policy=policy,
    )
    engine = MultiQueryEngine(
        [], workload.catalog, continuous=True,
        stem_eviction="time-window", stem_window=CHURN_WINDOW,
    )
    engine.schedule_churn(workload.events)
    queries = {admission.query_id: admission.query for admission in workload.admissions}
    return Run(engine, workload.catalog, queries, window=CHURN_WINDOW)


#: The 13 builders of :mod:`repro.bench.workloads`, each at a size whose
#: brute-force oracle (a cross product) stays small.
BUILDERS = {
    "q1": lambda policy: single(workloads.q1_workload(
        r_rows=60, distinct_a=15, r_scan_rate=200.0, s_index_latency=0.05,
    ), policy),
    "q4": lambda policy: single(workloads.q4_workload(
        rows=60, r_scan_rate=80.0, t_scan_rate=40.0, t_index_latency=0.05,
    ), policy),
    "competitive_ams": lambda policy: single(workloads.competitive_ams_workload(
        rows=60, join_rows=60, slow_stall_at=0.3, slow_stall_duration=2.0,
    ), policy),
    "cyclic": lambda policy: single(workloads.cyclic_workload(
        rows=25, stall_duration=2.0,
    ), policy),
    "prioritized": lambda policy: single(workloads.prioritized_workload(
        rows=60, r_scan_rate=80.0, t_scan_rate=40.0, t_index_latency=0.05,
    ), policy),
    "staggered_fleet": lambda policy: fleet(workloads.staggered_fleet_workload(
        n_queries=3, stagger=0.5, rows=50, r_scan_rate=80.0, t_scan_rate=60.0,
        t_index_latency=0.05, policy=policy,
    )),
    "shared_tables_mixed": lambda policy: fleet(
        shared_tables_mixed_workload(rows=40, stagger=0.5, policy=policy)
    ),
    "dashboard": lambda policy: fleet(dashboard_workload(
        rows=60, stagger=0.5, r_scan_rate=80.0, t_scan_rate=60.0, policy=policy,
    )),
    "churn": bounded_churn,
    "skewed_join": lambda policy: single(workloads.skewed_join_workload(
        fact_rows=80, dim_rows=20, hot_range=100, strong_cutoff=30,
    ), policy),
    "phase_shift": lambda policy: single(workloads.phase_shift_workload(
        rows=80, wide_range=100, narrow_range=20,
    ), policy),
    "bursty_join": lambda policy: single(workloads.bursty_join_workload(
        rows=60, scan_rate=60.0,
    ), policy),
    "heterogeneous_shapes": lambda policy: fleet(
        workloads.heterogeneous_shapes_workload(
            rows=30, nodes=12, edges=30, stagger=0.5, policy=policy,
        )
    ),
}


class InvariantChecker:
    """Checks the per-event invariants from ``Simulator.after_event_hook``."""

    def __init__(self, engine: MultiQueryEngine, window: float | None):
        self.engine = engine
        self.window = window
        self.bounded = window is not None
        self.last_time = engine.simulator.now
        self.events = 0
        self.seen_outputs: dict[str, int] = defaultdict(int)
        self.emitted: dict[str, set] = defaultdict(set)
        self.repeats: dict[str, int] = defaultdict(int)
        #: Queued tuples whose layout was checked (so the check is not vacuous).
        self.layout_checks = 0
        #: How many of them were match runs.
        self.run_checks = 0
        engine.simulator.after_event_hook = self.after_event

    def after_event(self, event) -> None:
        self.events += 1
        now = self.engine.simulator.now
        assert event.time >= self.last_time and now >= self.last_time, (
            f"virtual time went back from {self.last_time} to {now} at {event.label}"
        )
        self.last_time = now
        if self.window is not None:
            for stem in self.engine.registry.stems.values():
                if len(stem):
                    stamps = list(map(stem.timestamp_of, stem))
                    assert max(stamps) - min(stamps) < self.window, stem
        for query_id in self.engine.active:
            eddy = self.engine.eddy_of(query_id)
            queued = [eddy._ready, *(module.queue.items for module in eddy.modules.values())]
            for items in queued:
                for item in items:
                    # A match run waits as one ready entry, on its probe's layout.
                    if isinstance(item, (QTuple, MatchRun)):
                        assert item.layout is eddy.layout, (
                            f"{query_id}: {item} is on {item.layout}, not {eddy.layout}"
                        )
                        self.layout_checks += 1
                        self.run_checks += type(item) is MatchRun
            outputs = eddy.output_tuples
            start = self.seen_outputs[query_id]
            if start == len(outputs):
                continue
            emitted = self.emitted[query_id]
            for output in outputs[start:]:
                identity = output.identity()
                if identity in emitted:
                    assert self.bounded, (
                        f"{query_id} emitted {identity} twice (event {event.label} "
                        f"at {now})"
                    )
                    self.repeats[query_id] += 1
                emitted.add(identity)
            self.seen_outputs[query_id] = len(outputs)


def recompute_panel(query, rows) -> list[tuple]:
    """GROUP BY ``query`` over ``rows``, written without the engine's state."""
    alias = query.aggregate_alias
    groups: dict[tuple, list] = defaultdict(list)
    for row in rows:
        if all(p.evaluate({alias: row}) for p in query.predicates):
            groups[tuple(row[column.column] for column in query.group_by)].append(row)
    panel = []
    for key in sorted(groups):
        members = groups[key]
        values = list(key)
        for spec in query.aggregates:
            if spec.column is None:
                values.append(len(members))
                continue
            column = [row[spec.column.column] for row in members]
            values.append({
                "count": len,
                "sum": sum,
                "avg": lambda v: sum(v) / len(v),
                "min": min,
                "max": max,
            }[spec.func](column))
        panel.append(tuple(values))
    return panel


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_invariants_hold_at_every_event_and_at_quiesce(builder, policy):
    run = BUILDERS[builder](policy)
    checker = InvariantChecker(run.engine, run.window)
    result = run.engine.run()
    assert checker.events == run.engine.simulator.executed_events > 0
    assert checker.layout_checks > 0

    joins = 0
    for query_id, query in run.queries.items():
        outcome = result[query_id]
        assert outcome.eddy_stats["quarantined"] == 0, query_id
        if query.is_aggregate:
            stem = run.engine.eddy_of(query_id).stems[query.aggregate_alias].stem
            assert list(outcome.aggregate_rows) == recompute_panel(query, stem)
            assert outcome.aggregate_rows, query_id
            continue
        identities = outcome.identities()
        expected = oracle_identities(query, run.catalog)
        repeats = len(identities) - len(set(identities))
        assert repeats == checker.repeats[query_id], query_id
        if checker.bounded:
            assert set(identities) <= set(expected), query_id
        else:
            assert sorted(identities) == expected, query_id
            joins += bool(expected)
    assert checker.bounded or joins, "no join query of this builder produced a result"
    # A feedback-free policy keeps output-ready matches as runs, unless the
    # query has preferences (they act per tuple).
    if policy == "naive" and joins:
        assert checker.run_checks > 0 or any(
            run.engine.eddy_of(query_id).preferences for query_id in run.queries
        )
