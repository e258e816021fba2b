"""The five whole-engine workloads and the one function that runs them.

Every workload is a catalog of generated tables, a list of SQL admissions
(or a churn timeline) and a fixed set of engine options; the engine sees
nothing else.  Sizes are constants of this file, sized so one repetition is
1.2-1.8 s on the 2-core reference host — they are never adapted at run time
(``scale`` exists for ``--scale``/``--smoke`` only).  Why each workload was
chosen is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.engine.multi import ChurnEvent, MultiQueryEngine, QueryAdmission
from repro.engine.results import MultiQueryResult
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.recovery import CheckpointManager, recover_state, restore_engine
from repro.storage.catalog import Catalog
from repro.storage.datagen import ZipfDraw, make_source_r
from repro.storage.schema import Schema
from repro.storage.table import Table

BATCH_SIZE = 8

FLEET_QUERIES = 6
FLEET_ROWS = 750
FLEET_STAGGER = 4.0
FLEET_T_SCAN_RATE = 25.0
#: Half the generator's default.  At 0.2 the T index cannot keep up with the
#: scans and the run ends with a queue of lookups whose length swings the
#: virtual completion time by +-12% from seed to seed; at 0.1 it keeps up
#: (same lookups, same events) and completion is the last scan's end.
FLEET_T_INDEX_LATENCY = 0.1
#: Admission instants move by up to this share of the gap between two
#: admissions, drawn from the seed: arrival order is fixed, the interleaving
#: of the queries' scans (and every virtual time) is not.
ARRIVAL_JITTER = 0.1

FANOUT_ROWS = 1000
FANOUT_DISTINCT = 40
FANOUT_SCAN_RATE = 400.0

AGG_ROWS = 1500
AGG_GROUPS = 75
AGG_SCAN_RATE = 50.0
#: Panels arrive further apart than the window is long (window rows / scan
#: rate = 7.5 virtual s), so a row re-delivered by the next panel's scan has
#: already been evicted and is inserted again: every build is an insertion
#: and almost every insertion an eviction.
AGG_PANEL_GAP = 8.0

CHURN_ROWS = 600
#: The admission/retirement timeline is part of the workload definition, not
#: of the seed: Poisson timelines of ~20 queries differ by +-20% in total
#: work from seed to seed, which would drown every bound.  The seed still
#: generates the tables the timeline runs over.
CHURN_TIMELINE_SEED = 1

DURABLE_ROWS = 500
#: Kill the durable run at ~60% of its virtual completion (the last query
#: is admitted at stagger * (queries - 1) and then scans T to the end).  A
#: virtual time, not an event index, so it stays put when events go away.
DURABLE_CRASH_FRACTION = 0.6
DURABLE_CHECKPOINT_INTERVAL = 5.0


@dataclass(frozen=True)
class Prepared:
    """One generated workload: everything a repetition needs, built once."""

    name: str
    catalog: Catalog
    admissions: tuple[QueryAdmission, ...] = ()
    events: tuple[ChurnEvent, ...] = ()
    options: dict = field(default_factory=dict)
    crash_at: float | None = None

    @property
    def source_rows(self) -> int:
        """Base-table rows in the catalog, each table once."""
        return sum(len(table) for table in self.catalog.tables.values())

    @property
    def queries(self) -> dict[str, Query]:
        """Every query the run admits, by query id."""
        admissions = list(self.admissions) + [
            event.admission for event in self.events if event.action == "admit"
        ]
        return {admission.query_id: admission.query for admission in admissions}


@dataclass
class Outcome:
    """What one repetition produced.

    ``engines`` holds every engine incarnation, oldest first (two for
    ``durable_crash``); ``acked`` and ``acked_times`` are the results the
    write-ahead log had acknowledged before the crash.
    """

    result: MultiQueryResult
    engines: tuple[MultiQueryEngine, ...]
    acked: dict[str, dict[str, int]] = field(default_factory=dict)
    acked_times: list[float] = field(default_factory=list)
    recovery: dict[str, float] = field(default_factory=dict)


def _rows(base: int, scale: float) -> int:
    return max(int(base * scale), 40)


def _jittered(admissions, seed: int, gap: float) -> tuple[QueryAdmission, ...]:
    rng = random.Random(seed)
    return tuple(
        replace(
            admission,
            arrival_time=admission.arrival_time + rng.uniform(0.0, ARRIVAL_JITTER * gap),
        )
        for admission in admissions
    )


def _fleet(seed: int, rows: int):
    workload = staggered_fleet_workload(
        n_queries=FLEET_QUERIES,
        rows=rows,
        stagger=FLEET_STAGGER,
        t_scan_rate=FLEET_T_SCAN_RATE,
        t_index_latency=FLEET_T_INDEX_LATENCY,
        policy="naive",
        seed=seed,
    )
    return workload.catalog, _jittered(workload.admissions, seed, FLEET_STAGGER)


def fleet_join(seed: int, scale: float = 1.0) -> Prepared:
    catalog, admissions = _fleet(seed, _rows(FLEET_ROWS, scale))
    return Prepared(
        "fleet_join", catalog, admissions=admissions, options={"batch_size": BATCH_SIZE}
    )


def _zipf_table(name: str, rows: int, seed: int) -> Table:
    """``(id, value)`` with Zipf(1) value frequencies, in seeded order.

    Every value occurs as often as its Zipf share says, on every seed — the
    most frequent value alone makes 60% of the join, and drawing its count
    at random would move the size of the result by +-6% between seeds.  The
    seed decides which ids carry which value, and so the order of arrival.
    """
    shares = ZipfDraw(FANOUT_DISTINCT, skew=1.0).cdf
    upto = [0] + [round(share * rows) for share in shares]
    values = [
        value
        for value in range(FANOUT_DISTINCT)
        for _ in range(upto[value + 1] - upto[value])
    ]
    random.Random(seed).shuffle(values)
    return Table(
        name, Schema.of("id:int", "value:int", key=["id"]), rows=enumerate(values)
    )


def fanout_join(seed: int, scale: float = 1.0) -> Prepared:
    rows = _rows(FANOUT_ROWS, scale)
    catalog = Catalog()
    for position, name in enumerate(("A", "B")):
        catalog.add_table(_zipf_table(name, rows, seed + position))
        catalog.add_scan(name, rate=FANOUT_SCAN_RATE)
    admissions = (
        QueryAdmission(
            parse_query(
                "SELECT * FROM A, B WHERE A.value = B.value AND A.id < B.id",
                name="fanout-lower",
            ),
            query_id="lower",
            policy="naive",
        ),
        QueryAdmission(
            parse_query(
                f"SELECT * FROM A, B WHERE A.value = B.value AND B.id < {rows // 4}",
                name="fanout-head",
            ),
            query_id="head",
            policy="naive",
            arrival_time=1.0,
        ),
    )
    return Prepared(
        "fanout_join",
        catalog,
        admissions=_jittered(admissions, seed, 1.0),
        options={"batch_size": BATCH_SIZE},
    )


def agg_window(seed: int, scale: float = 1.0) -> Prepared:
    rows = _rows(AGG_ROWS, scale)
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, distinct_a=AGG_GROUPS, seed=seed))
    catalog.add_scan("R", rate=AGG_SCAN_RATE)
    panels = (
        ("counts", "SELECT a, count(*), sum(key) FROM R GROUP BY a"),
        (
            "hot",
            "SELECT a, count(*), avg(key), min(key), max(key) FROM R "
            f"WHERE R.a < {AGG_GROUPS // 4} GROUP BY a",
        ),
        # Same signature as "counts": the two share one aggregate module.
        ("counts_dup", "SELECT a, count(*), sum(key) FROM R GROUP BY a"),
        ("low_keys", f"SELECT a, min(key), max(key) FROM R WHERE R.key < {rows // 2} GROUP BY a"),
        ("global", "SELECT count(*), sum(key), avg(a), min(key), max(key) FROM R"),
        ("spread", "SELECT a, avg(key), max(key) FROM R GROUP BY a"),
    )
    admissions = tuple(
        QueryAdmission(
            parse_query(sql, name=f"panel-{name}"),
            query_id=name,
            policy="naive",
            arrival_time=AGG_PANEL_GAP * position,
        )
        for position, (name, sql) in enumerate(panels)
    )
    return Prepared(
        "agg_window",
        catalog,
        admissions=_jittered(admissions, seed, AGG_PANEL_GAP),
        options={
            "batch_size": BATCH_SIZE,
            "stem_eviction": "count",
            "stem_max_size": rows // 4,
        },
    )


def churn_window(seed: int, scale: float = 1.0) -> Prepared:
    parameters = dict(
        duration=80.0,
        arrival_rate=0.25,
        mean_lifetime=15.0,
        rows=_rows(CHURN_ROWS, scale),
        policy="benefit",
    )
    data = churn_workload(seed=seed, **parameters)
    timeline = churn_workload(seed=CHURN_TIMELINE_SEED, **parameters)
    return Prepared(
        "churn_window",
        data.catalog,
        events=timeline.events,
        options={
            "batch_size": BATCH_SIZE,
            "stem_eviction": "time-window",
            "stem_window": max(600.0 * scale, 8.0),
        },
    )


def durable_crash(seed: int, scale: float = 1.0) -> Prepared:
    rows = _rows(DURABLE_ROWS, scale)
    catalog, admissions = _fleet(seed, rows)
    completion = FLEET_STAGGER * (FLEET_QUERIES - 1) + rows / FLEET_T_SCAN_RATE
    return Prepared(
        "durable_crash",
        catalog,
        admissions=admissions,
        options={"batch_size": BATCH_SIZE},
        crash_at=DURABLE_CRASH_FRACTION * completion,
    )


#: Builders by workload name, in report order.
WORKLOADS = {
    builder.__name__: builder
    for builder in (fleet_join, fanout_join, agg_window, churn_window, durable_crash)
}


class _Killed(Exception):
    """Unwinds the simulator at the crash boundary, like a process kill."""


def execute(
    prepared: Prepared,
    overrides: dict | None = None,
    scratch: str | None = None,
    span=lambda name: nullcontext(),
) -> Outcome:
    """Run one repetition of a workload on a fresh engine.

    ``overrides`` replaces engine options (the matrix and the oracle
    configuration); ``scratch`` is where the durable workload keeps its
    checkpoint directory for the length of the repetition; ``span`` is the
    tracer's context-manager factory for the calls made from here.
    """
    options = {**prepared.options, **(overrides or {})}
    engine = MultiQueryEngine(
        list(prepared.admissions), prepared.catalog, continuous=True, **options
    )
    if prepared.events:
        engine.schedule_churn(prepared.events)
    if prepared.crash_at is None:
        return Outcome(engine.run(), (engine,))

    directory = tempfile.mkdtemp(prefix="durable-", dir=scratch)
    try:
        with span("recovery.attach"):
            manager = CheckpointManager.attach(
                engine, directory, interval=DURABLE_CHECKPOINT_INTERVAL
            )
        simulator = engine.simulator

        def kill_at_boundary(event) -> None:
            if simulator.now >= prepared.crash_at:
                raise _Killed()

        simulator.after_event_hook = kill_at_boundary
        try:
            engine.run()
        except _Killed:
            pass
        else:
            raise RuntimeError(
                f"durable run completed before crash_at={prepared.crash_at}"
            )
        manager.simulate_crash()
        state = recover_state(directory)
        with span("recovery.replay"):
            restored = restore_engine(
                state, prepared.catalog, mode="replay", **options
            )
            result = restored.run()
        wal_bytes = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
            if name.startswith("wal-")
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    acked = {query_id: dict(counts) for query_id, counts in state.emitted.items()}
    acked_times = [
        record.time
        for query_id, counts in acked.items()
        for record in engine.eddy_of(query_id).outputs[: sum(counts.values())]
    ]
    return Outcome(
        result,
        (engine, restored),
        acked=acked,
        acked_times=acked_times,
        recovery={
            "wal_records": manager.stats["wal_records"],
            "wal_flushes": manager.wal.stats["flushes"],
            "wal_bytes": wal_bytes,
            "snapshots": manager.stats["checkpoints"],
            "snapshot_bytes": manager.stats["last_snapshot_bytes"],
        },
    )
