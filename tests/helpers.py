"""Builders and assertion helpers shared by the tests and the benchmarks.

No engine, CLI command or benchmark workload runs any of these: they build
inputs for test cases (single tuples, generic tables, multi-query
workloads) and check outputs (duplicates, curve shapes).  They sit next to
the tests so that ``src/`` holds only what an entry point runs.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from repro.bench.workloads import MultiQueryWorkload
from repro.core.aggregates import AggregateState
from repro.core.stem_registry import SteMRegistry
from repro.core.tuples import QTuple, Result, singleton_maker
from repro.engine.multi import QueryAdmission
from repro.engine.results import ExecutionResult, Series
from repro.query.expressions import ColumnRef
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.predicates import Comparison
from repro.query.query import AggregateSpec, Query
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.storage.datagen import ZipfDraw, make_source_r, make_source_s, make_source_t
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table

# ---------------------------------------------------------------------------
# Tuples and predicates
# ---------------------------------------------------------------------------

#: Every slot of a ``QTuple``: its ``Result`` slots, then its TupleState.
QTUPLE_SLOTS = (*Result.__slots__, *QTuple.__slots__)


def equi_join(left: str, right: str, priority: float = 0.0) -> Comparison:
    """``equi_join("R.a", "S.x")`` is the predicate ``R.a = S.x``."""
    return Comparison(ColumnRef.parse(left), "=", ColumnRef.parse(right), priority=priority)


def layout_over(*aliases: str) -> PlanLayout:
    """The :class:`PlanLayout` of a predicate-free query over ``aliases``
    (FROM-clause order, so alias ``i`` holds bit ``1 << i``)."""
    return PlanLayout(Query(aliases))


def singleton_tuple(
    alias: str,
    row: Row,
    source: str = "",
    created_at: float = 0.0,
    *,
    layout: PlanLayout,
) -> QTuple:
    """A singleton :class:`QTuple` for one row, as an access method makes it."""
    return singleton_maker(alias, source, layout)(row, created_at)


class FakeRuntime:
    """The whole ``EddyRuntime`` surface a module is attached to, over a
    real simulator but with no eddy behind it.

    What the module hands back is recorded instead of routed: deliveries in
    ``delivered``, quarantined tuples as ``(tuple, module, error)`` in
    ``trapped`` and absorbed tuples in ``absorbed``.  ``has_scan_am`` is
    true for ``scan_aliases``.
    """

    def __init__(self, layout: PlanLayout, scan_aliases: Sequence[str] = ()):
        self.sim = Simulator()
        self.layout = layout
        self.live = True
        self.scan_aliases = set(scan_aliases)
        self.delivered: list = []
        self.trapped: list = []
        self.absorbed: list = []
        self._timestamps = itertools.count(1)

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay, callback, label=""):
        return self.sim.schedule(delay, callback, label)

    def reserve(self, delays, base=None):
        return self.sim.reserve(delays, base)

    def schedule_reserved(self, slot, callback, label=""):
        return self.sim.schedule_reserved(slot, callback, label)

    def cancel(self, event) -> None:
        self.sim.cancel(event)

    def to_eddy(self, item, source=None) -> None:
        self.to_eddy_all((item,), source)

    def to_eddy_all(self, items, source=None) -> None:
        self.delivered.extend(items)

    def next_timestamp(self) -> float:
        return float(next(self._timestamps))

    def has_scan_am(self, alias) -> bool:
        return alias in self.scan_aliases

    def notify_idle(self, module) -> None:
        pass

    def note_absorbed(self, tuple_) -> None:
        self.absorbed.append(tuple_)

    def quarantine_tuple(self, tuple_, module, error) -> None:
        self.trapped.append((tuple_, module, error))


# ---------------------------------------------------------------------------
# Engine state and reference results
# ---------------------------------------------------------------------------


def refcount(registry: SteMRegistry, table: str) -> int:
    """Owner-attributed references a registry holds on a table's SteM."""
    return registry._table_refs.get(table, 0)


def recompute_aggregate(
    group_by: Sequence[ColumnRef], aggregates: Sequence[AggregateSpec], rows
) -> list[tuple]:
    """Reference: aggregate ``rows`` from scratch (no retractions)."""
    state = AggregateState(group_by, aggregates)
    for row in rows:
        state.insert(row)
    return state.result_rows()


# ---------------------------------------------------------------------------
# Result checks
# ---------------------------------------------------------------------------


def has_duplicates(result: ExecutionResult) -> bool:
    """True if the same logical result was emitted more than once."""
    identities = result.identities()
    return len(identities) != len(set(identities))


def time_to_count(series: Series, count: int) -> float | None:
    """Earliest time at which the cumulative count reaches ``count``."""
    for time, value in series:
        if value >= count:
            return time
    return None


def _halves(series: Series, start: float, end: float) -> tuple[int, int]:
    mid = (start + end) / 2.0
    first = series.count_at(mid) - series.count_at(start)
    return first, series.count_at(end) - series.count_at(mid)


def shape_is_convex(series: Series, start: float, end: float) -> bool:
    """True if the series accelerates over [start, end] (second half > first half).

    A discretisation-tolerant test of Figure 7's "parabolic" index-join curve.
    """
    if end <= start:
        return False
    first_half, second_half = _halves(series, start, end)
    return second_half > first_half


def shape_is_near_linear(
    series: Series, start: float, end: float, tolerance: float = 0.35
) -> bool:
    """True if growth over the two halves of [start, end] is roughly equal."""
    if end <= start:
        return False
    first_half, second_half = _halves(series, start, end)
    total = first_half + second_half
    if total == 0:
        return False
    return abs(first_half - second_half) / total <= tolerance


# ---------------------------------------------------------------------------
# Generic tables
# ---------------------------------------------------------------------------


def make_uniform_table(
    name: str,
    cardinality: int,
    columns: Sequence[str] = ("id", "value"),
    value_range: int = 1000,
    seed: int = 0,
) -> Table:
    """A table with a sequential key column and uniform random integers."""
    rng = random.Random(seed)
    specs = [f"{column}:int" for column in columns]
    table = Table(name, Schema.of(*specs, key=[columns[0]]))
    for row_id in range(cardinality):
        table.insert([row_id] + [rng.randrange(value_range) for _ in columns[1:]])
    return table


def make_zipfian_table(
    name: str, cardinality: int, distinct: int = 100, skew: float = 1.0, seed: int = 0
) -> Table:
    """A table ``(id, value)`` whose ``value`` is Zipf(``skew``) over ``distinct`` values."""
    draw = ZipfDraw(distinct, skew, seed=seed)
    table = Table(name, Schema.of("id:int", "value:int", key=["id"]))
    for row_id in range(cardinality):
        table.insert((row_id, draw()))
    return table


def make_foreign_key_table(
    name: str,
    cardinality: int,
    referenced: Table,
    referenced_column: str,
    seed: int = 0,
) -> Table:
    """A table ``(id, fk)`` whose ``fk`` values all occur in ``referenced_column``.

    An equi-join on a key column therefore yields exactly ``cardinality`` rows.
    """
    rng = random.Random(seed)
    referenced_values = sorted({row[referenced_column] for row in referenced})
    if not referenced_values:
        raise ValueError(f"referenced table {referenced.name!r} is empty")
    table = Table(name, Schema.of("id:int", "fk:int", key=["id"]))
    for row_id in range(cardinality):
        table.insert((row_id, rng.choice(referenced_values)))
    return table


# ---------------------------------------------------------------------------
# Multi-query workloads
# ---------------------------------------------------------------------------


def _staggered(
    name: str,
    catalog: Catalog,
    queries: Sequence[tuple[str, str]],
    stagger: float,
    policy: str,
    parameters: dict,
) -> MultiQueryWorkload:
    admissions = tuple(
        QueryAdmission(
            query=parse_query(sql, name=query_id),
            query_id=query_id,
            policy=policy,
            arrival_time=stagger * position,
        )
        for position, (query_id, sql) in enumerate(queries)
    )
    return MultiQueryWorkload(
        name=name, catalog=catalog, admissions=admissions, parameters=parameters
    )


def shared_tables_mixed_workload(
    rows: int = 200, stagger: float = 3.0, policy: str = "naive", seed: int = 0
) -> MultiQueryWorkload:
    """Queries with *partially* overlapping table sets over one catalog.

    R⨝T, R⨝S and the full R⨝S⨝T chain: the R SteM is shared by every
    query, while S and T are each shared by two of the three — the
    registry's per-table (rather than per-run) sharing decisions.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_s(distinct_a))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=50.0)
    catalog.add_scan("T", rate=40.0)
    catalog.add_scan("S", rate=60.0)
    catalog.add_index("S", ["x"], latency=0.3)
    catalog.add_index("T", ["key"], latency=0.2)
    shapes = (
        ("rt", "SELECT * FROM R, T WHERE R.key = T.key"),
        ("rs", "SELECT * FROM R, S WHERE R.a = S.x"),
        ("rst", "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key"),
    )
    return _staggered(
        "shared_tables_mixed", catalog, shapes, stagger, policy,
        {"rows": rows, "stagger": stagger, "policy": policy},
    )


def dashboard_workload(
    rows: int = 400,
    stagger: float = 2.0,
    r_scan_rate: float = 50.0,
    t_scan_rate: float = 40.0,
    hot_fraction: float = 0.25,
    policy: str = "naive",
    seed: int = 0,
) -> MultiQueryWorkload:
    """A CACQ-style dashboard: GROUP BY aggregates sharing one table's SteM.

    Standing GROUP BY panels over one R stream — a per-group count, a later
    duplicate of it (shares the first one's
    :class:`~repro.core.aggregates.AggregateModule` by signature), and a
    filtered "hot groups" panel with its own module — beside an R⨝T join
    that shares the R SteM with all of them.  A bounded or windowed SteM
    turns every panel into a sliding-window aggregate.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_scan("T", rate=t_scan_rate)
    catalog.add_index("T", ["key"], latency=0.2)
    cutoff = max(1, int(distinct_a * hot_fraction))
    panels = (
        ("panel_counts", "SELECT a, count(*), sum(key) FROM R GROUP BY a"),
        (
            "panel_hot",
            f"SELECT a, count(*), avg(key), min(key), max(key) "
            f"FROM R WHERE R.a < {cutoff} GROUP BY a",
        ),
        ("panel_counts_dup", "SELECT a, count(*), sum(key) FROM R GROUP BY a"),
        ("join_rt", "SELECT * FROM R, T WHERE R.key = T.key"),
    )
    return _staggered(
        "dashboard", catalog, panels, stagger, policy,
        {"rows": rows, "stagger": stagger, "hot_cutoff": cutoff, "policy": policy, "seed": seed},
    )
