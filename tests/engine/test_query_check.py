"""One query check, before virtual time 0, with one answer on every engine.

``check_query`` resolves every column reference against the catalog and
type-checks comparisons and aggregates; ``MultiQueryEngine.admit`` runs it
before it touches any engine state, and the baseline engines at
construction.  A query it rejects is a ``QueryError`` everywhere, never
0 rows, all rows, or a ``KeyError`` out of the run.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.engine.api import ENGINES, execute
from repro.engine.config import EngineConfig
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.errors import BindingError, ExecutionError, QueryError
from repro.query.expressions import Literal
from repro.query.predicates import Comparison
from repro.query.query import Query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from repro.storage.schema import Schema
from repro.storage.table import Table

ROWS = 20


def typed_catalog() -> Catalog:
    """``R(key:str, a:int)`` and ``T(key:int, b:float)``, 20 rows each."""
    catalog = Catalog()
    r = Table("R", Schema.of("key:str", "a:int"))
    t = Table("T", Schema.of("key:int", "b:float"))
    for i in range(ROWS):
        r.insert((f"k{i}", i % 4))
        t.insert((i, i / 2))
    for table in (r, t):
        catalog.add_table(table)
        catalog.add_scan(table.name, rate=100.0)
    return catalog


REJECTED = {
    "unknown-selection-column": ("SELECT * FROM R WHERE R.nope = 5", "names no column of 'R'"),
    "unknown-join-column": ("SELECT * FROM R, T WHERE R.nope = T.key", "names no column of 'R'"),
    "unknown-projection-column": (
        "SELECT R.nope FROM R, T WHERE R.a = T.key", "names no column of 'R'",
    ),
    "str-vs-int-selection": ("SELECT * FROM R WHERE R.key < 5", "compares numeric with string"),
    "str-vs-int-equi-join": (
        "SELECT * FROM R, T WHERE R.key = T.key", "compares numeric with string",
    ),
    "in-list-of-another-family": (
        "SELECT * FROM R WHERE R.a IN (1, 'x')", "lists string values for a numeric column",
    ),
}
REJECTED_AGGREGATES = {
    "sum-over-str": "SELECT a, sum(key) FROM R GROUP BY a",
    "avg-over-str": "SELECT a, avg(key) FROM R GROUP BY a",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_a_bad_query_is_one_query_error_on_every_engine(engine, case):
    sql, message = REJECTED[case]
    with pytest.raises(QueryError, match=message):
        execute(sql, typed_catalog(), engine=engine)


@pytest.mark.parametrize("case", sorted(REJECTED_AGGREGATES))
def test_sum_and_avg_need_a_numeric_column(case):
    with pytest.raises(QueryError, match="needs a numeric column"):
        execute(REJECTED_AGGREGATES[case], typed_catalog())


@pytest.mark.parametrize("engine", ENGINES)
def test_the_check_runs_before_virtual_time_zero(engine):
    # The baseline engines reject an aggregate only after checking it.
    with pytest.raises(QueryError):
        execute(REJECTED_AGGREGATES["sum-over-str"], typed_catalog(), engine=engine)
    engine_under_test = MultiQueryEngine([], typed_catalog(), continuous=True)
    with pytest.raises(QueryError):
        engine_under_test.admit(REJECTED["str-vs-int-selection"][0])
    assert engine_under_test.simulator.now == 0.0
    assert engine_under_test.simulator.executed_events == 0


def test_the_config_is_checked_before_the_first_admission():
    # A continuous engine with no admission yet used to accept batch_size=0
    # and fail at the first admission, on the live simulator.
    with pytest.raises(ExecutionError, match="batch_size must be >= 1"):
        MultiQueryEngine([], typed_catalog(), continuous=True, batch_size=0)
    with pytest.raises(ExecutionError, match="a config or engine options, not both"):
        MultiQueryEngine([], typed_catalog(), continuous=True,
                         config=EngineConfig(), batch_size=8)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "query, expected",
    [
        ("SELECT * FROM R, T WHERE R.a = T.key AND R.a < 2.5", 15),
        ("SELECT * FROM T WHERE T.b > 4", 11),
        (Query(["R"], [Comparison("R.a", "=", Literal(None))]), 0),
    ],
    ids=["int-vs-float", "float-vs-int", "null-literal"],
)
def test_legal_comparisons_still_run(engine, query, expected):
    assert execute(query, typed_catalog(), engine=engine).row_count == expected


def indexed_catalog() -> Catalog:
    """Scan R; S only through an index on x; T through a scan and an index on key."""
    catalog = Catalog()
    catalog.add_table(make_source_r(60, 15, seed=31))
    catalog.add_table(make_source_s(25))
    catalog.add_table(make_source_t(60, seed=32))
    catalog.add_scan("R", rate=100.0)
    catalog.add_index("S", ["x"], latency=0.05)
    catalog.add_scan("T", rate=100.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


@pytest.mark.parametrize("engine", ENGINES)
def test_an_unbindable_table_is_one_binding_error_on_every_engine(engine):
    # Nothing binds S.x: the static engine used to read S whole and answer.
    with pytest.raises(BindingError, match=r"no usable access method for \['S'\]"):
        execute("SELECT * FROM S, T WHERE S.y = T.key AND S.x < 10",
                indexed_catalog(), engine=engine)


def test_count_min_max_over_a_string_column_still_run():
    result = execute("SELECT a, count(key), min(key), max(key) FROM R GROUP BY a",
                     typed_catalog())
    assert result.aggregate_rows == (
        (0, 5, "k0", "k8"), (1, 5, "k1", "k9"), (2, 5, "k10", "k6"), (3, 5, "k11", "k7"),
    )


def test_the_cli_query_command_fails_before_the_run(capsys):
    with pytest.raises(QueryError, match="names no column of 'R'"):
        main(["query", "SELECT * FROM R WHERE R.nope = 5"])
    assert capsys.readouterr().out == ""


CLEAN_PANEL = "SELECT a, count(*) FROM R GROUP BY a"


def clean_rows() -> list:
    return [(a, ROWS // 4) for a in range(4)]


class TestRejectedAdmissions:
    def test_a_rejected_admission_pins_no_shared_stem(self):
        engine = MultiQueryEngine(
            [QueryAdmission(CLEAN_PANEL, query_id="ok")], typed_catalog()
        )
        with pytest.raises(QueryError, match="names no column of 'R'"):
            engine.admit(QueryAdmission(
                "SELECT a, sum(nope) FROM R GROUP BY a", query_id="x"
            ))
        assert engine.admitted == ("ok",) and engine.active == ("ok",)
        assert engine.registry.owners == ("ok",)
        engine.run()
        engine.retire("ok")
        assert len(engine.registry) == 0 and engine.registry.owners == ()

    def test_a_sum_over_str_panel_is_rejected_and_the_clean_one_retires(self):
        # A panel summing a str column used to wedge run() and retire().
        bad = QueryAdmission("SELECT a, sum(key) FROM R GROUP BY a", query_id="bad")
        ok = QueryAdmission(CLEAN_PANEL, query_id="ok")
        with pytest.raises(QueryError, match="needs a numeric column"):
            MultiQueryEngine([ok, bad], typed_catalog())
        engine = MultiQueryEngine([ok], typed_catalog())
        with pytest.raises(QueryError, match="needs a numeric column"):
            engine.admit(bad)
        assert sorted(engine.run()["ok"].aggregate_rows) == clean_rows()
        with pytest.raises(QueryError, match="needs a numeric column"):
            engine.admit(QueryAdmission(bad.query, query_id="bad-live"))
        retired = engine.retire("ok")
        assert sorted(retired.aggregate_rows) == clean_rows()
        assert engine.active == () and len(engine.registry) == 0
