"""The binary join modules of the eddy-joins and static engines.

Each case runs a two-table query over hand-made R(key, a) and S(x, y)
through one join module: a symmetric hash join (S scanned) or an index join
(S read only through an index on its join columns).  Either must return
exactly the brute-force oracle's multiset.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.modules.joinmodule import IndexJoinModule
from repro.core.tuples import MatchRun
from repro.engine.config import EngineConfig
from repro.engine.joins_engine import EddyJoinsEngine, JoinSpec
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.table import Table
from tests.conftest import oracle_identities
from tests.helpers import has_duplicates

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")
T_SCHEMA = Schema.of("key:int", "z:int")

KINDS = ["shj", "index"]


def rs_catalog(r_rows, s_rows, s_index=None):
    """R scanned; S scanned, or read only through an index on ``s_index``."""
    catalog = Catalog()
    catalog.add_table(Table("R", R_SCHEMA, r_rows))
    catalog.add_table(Table("S", S_SCHEMA, s_rows))
    catalog.add_scan("R")
    if s_index is None:
        catalog.add_scan("S")
    else:
        catalog.add_index("S", s_index, latency=0.01)
    return catalog


def run_step(where, r_rows, s_rows, kind, index_columns=("x",)):
    """Run ``R, S WHERE where`` through one join module of ``kind``.

    Returns the result, the oracle's identities and the module's stats.
    """
    query = parse_query(f"SELECT * FROM R, S WHERE {where}")
    if kind == "shj":
        catalog = rs_catalog(r_rows, s_rows)
        step = JoinSpec(kind="shj", left=("R",), right="S")
    else:
        catalog = rs_catalog(r_rows, s_rows, s_index=index_columns)
        step = JoinSpec(kind="index", left=("R",), right="S", index_columns=index_columns)
    result = EddyJoinsEngine(query, catalog, plan=[step]).run()
    stats = result.module_stats[f"join:{kind}:0:S"]
    return result, oracle_identities(query, catalog), stats


#: (WHERE clause, R rows as (key, a), S rows as (x, y)): one shape per case.
JOIN_CASES = {
    "one-to-one": ("R.a = S.x", [(i, i) for i in range(6)], [(j, j) for j in range(6)]),
    "many-to-one": ("R.a = S.x", [(i, i % 3) for i in range(12)], [(j, -j) for j in range(3)]),
    "many-to-many": (
        "R.a = S.x",
        [(i, i % 2) for i in range(8)],
        [(j % 2, j) for j in range(6)],
    ),
    "disjoint-keys": ("R.a = S.x", [(i, i) for i in range(5)], [(j, j) for j in range(10, 15)]),
    "reversed-orientation": (
        "S.x = R.a",
        [(i, i % 4) for i in range(10)],
        [(j, j) for j in range(4)],
    ),
    "two-column-key": (
        "R.a = S.x AND R.key = S.y",
        [(i, i % 3) for i in range(9)],
        [(j % 3, j) for j in range(9)],
    ),
    "left-selection-residual": (
        "R.a = S.x AND R.key >= 4",
        [(i, i % 3) for i in range(9)],
        [(j, j) for j in range(3)],
    ),
    "cross-side-theta-residual": (
        "R.a = S.x AND R.key < S.y",
        [(i, i % 2) for i in range(8)],
        [(j % 2, j) for j in range(8)],
    ),
    "null-keys": (
        "R.a = S.x",
        [(0, None), (1, 1), (2, None), (3, 2)],
        [(None, 0), (1, 1), (None, 2), (2, 3)],
    ),
    "duplicate-rows": ("R.a = S.x", [(0, 5), (0, 5), (1, 5)], [(5, 0), (5, 0)]),
}

#: The index an index join reads S through, where it is not S.x alone.
INDEX_COLUMNS = {"two-column-key": ("x", "y")}


@pytest.mark.parametrize("case", sorted(JOIN_CASES))
@pytest.mark.parametrize("kind", KINDS)
def test_join_step_matches_the_oracle(kind, case):
    where, r_rows, s_rows = JOIN_CASES[case]
    result, expected, _ = run_step(
        where, r_rows, s_rows, kind, INDEX_COLUMNS.get(case, ("x",))
    )
    assert sorted(result.identities()) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_null_keys_never_match(kind):
    result, expected, _ = run_step(
        "R.a = S.x", [(0, None), (1, None)], [(None, 0), (None, 1)], kind
    )
    assert result.row_count == 0 and expected == []


@pytest.mark.parametrize("kind", KINDS)
def test_duplicate_keys_produce_cross_products(kind):
    result, _, stats = run_step("R.a = S.x", [(0, 7), (1, 7), (2, 7)], [(7, 0), (7, 1)], kind)
    assert result.row_count == stats["results"] == 6
    assert not has_duplicates(result)


def test_shj_stats_count_inputs_and_results():
    _, expected, stats = run_step(
        "R.a = S.x", [(i, i % 3) for i in range(9)], [(0, 0), (1, 1), (7, 7)], "shj"
    )
    assert (stats["left"], stats["right"], stats["unroutable"]) == (9, 3, 0)
    assert stats["results"] == len(expected) == 6


def test_index_join_stats_count_probes_lookups_and_results():
    _, expected, stats = run_step(
        "R.a = S.x", [(i, i % 3) for i in range(9)], [(0, 0), (1, 1), (7, 7)], "index"
    )
    # Three distinct keys: one lookup each, the other six probes hit the cache.
    assert (stats["probes"], stats["lookups"], stats["cache_hits"]) == (9, 3, 6)
    assert stats["unbindable"] == 0
    assert stats["results"] == len(expected) == 6


def test_shj_without_an_equality_is_a_nested_loops_join():
    result, expected, stats = run_step("R.a < S.x", [(0, 1), (1, 5)], [(3, 3)], "shj")
    assert sorted(result.identities()) == expected
    assert stats["results"] == result.row_count == 1


def test_shj_without_predicates_is_a_cross_product():
    query = parse_query("SELECT * FROM R, S")
    catalog = rs_catalog([(0, 0), (1, 1)], [(5, 5)] * 3)
    result = EddyJoinsEngine(
        query, catalog, plan=[JoinSpec(kind="shj", left=("R",), right="S")]
    ).run()
    assert result.row_count == 6
    assert sorted(result.identities()) == oracle_identities(query, catalog)


@pytest.mark.parametrize("kind", KINDS)
def test_a_join_over_a_composite_left_input(kind):
    """A left-deep step: the probe side carries two aliases already joined."""
    catalog = rs_catalog([(i, i % 4) for i in range(8)], [(j, j % 3) for j in range(4)])
    catalog.add_table(Table("T", T_SCHEMA, [(k, k * 10) for k in range(3)]))
    if kind == "shj":
        catalog.add_scan("T")
    else:
        catalog.add_index("T", ["key"], latency=0.01)
    query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
    if kind == "shj":
        step = JoinSpec(kind="shj", left=("R", "S"), right="T")
    else:
        step = JoinSpec(kind="index", left=("R", "S"), right="T", index_columns=("key",))
    plan = [JoinSpec(kind="shj", left=("R",), right="S"), step]
    result = EddyJoinsEngine(query, catalog, plan=plan).run()
    pairs = EddyJoinsEngine("SELECT * FROM R, S WHERE R.a = S.x", catalog, plan=plan[:1]).run()
    assert sorted(result.identities()) == oracle_identities(query, catalog)
    # Every S.y in 0..2 has one T row.
    assert result.row_count == pairs.row_count > 0


@settings(max_examples=30, deadline=None)
@given(
    left_keys=st.lists(st.integers(0, 6), max_size=25),
    right_keys=st.lists(st.integers(0, 6), max_size=25),
)
def test_property_every_join_module_matches_the_oracle(left_keys, right_keys):
    """Property: both join modules return exactly the oracle's multiset."""
    r_rows = [(i, key) for i, key in enumerate(left_keys)]
    s_rows = [(key, i) for i, key in enumerate(right_keys)]
    for kind in KINDS:
        result, expected, _ = run_step("R.a = S.x", r_rows, s_rows, kind)
        assert sorted(result.identities()) == expected


@pytest.mark.parametrize("model, gaps", [("constant", 1), ("exponential", None)])
def test_an_index_join_draws_the_index_s_latency_model(model, gaps):
    # A cache-free lookup per distinct key: each gap between two lookups is
    # one draw of the catalog index's latency model, seeded by the index.
    catalog = Catalog()
    catalog.add_table(Table("R", R_SCHEMA, [(i, i) for i in range(12)]))
    catalog.add_table(Table("S", S_SCHEMA, [(j, j) for j in range(12)]))
    catalog.add_scan("R", rate=1000.0)
    catalog.add_index("S", ["x"], latency=0.5, latency_model=model, latency_seed=7)
    query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
    step = JoinSpec(kind="index", left=("R",), right="S", index_columns=("x",),
                    lookup_latency=0.5)
    runs = [EddyJoinsEngine(query, catalog, plan=[step]).run() for _ in range(2)]
    series = [run.index_probe_series["join:index:0:S"].points for run in runs]
    assert series[0] == series[1]  # seeded: the same draws on every run
    times = [time for time, _ in series[0]]
    distinct = {round(b - a, 9) for a, b in zip(times, times[1:])}
    assert len(times) == 12 and runs[0].row_count == 12
    if gaps is None:
        assert len(distinct) > 1
    else:
        assert len(distinct) == gaps


@pytest.mark.parametrize("batch_size", [1, 8])
def test_an_index_join_hands_over_one_run(monkeypatch, batch_size):
    """An index probe's matches cross into the eddy as one MatchRun, and the
    run gives what its QTuples handed over one by one gave: outputs, ids,
    times, partial series and eddy stats.  The first step's runs are not
    ready for output (the eddy materialises them), the second step's are."""
    catalog = rs_catalog(
        [(i, i % 3) for i in range(12)], [(j % 3, j % 4) for j in range(9)], s_index=("x",)
    )
    catalog.add_table(Table("T", T_SCHEMA, [(k % 4, k) for k in range(8)]))
    catalog.add_index("T", ["key"], latency=0.01)
    query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
    plan = [
        JoinSpec(kind="index", left=("R",), right="S", index_columns=("x",)),
        JoinSpec(kind="index", left=("R", "S"), right="T", index_columns=("key",)),
    ]
    handed = []
    process = IndexJoinModule.process

    def recording(self, item):
        items = process(self, item)
        handed.extend(items)
        return items

    def one_by_one(self, item):
        return [
            routable
            for produced in process(self, item)
            for routable in (produced.tuples() if isinstance(produced, MatchRun) else (produced,))
        ]

    def facts():
        result = EddyJoinsEngine(
            query, catalog, plan=plan, config=EngineConfig(batch_size=batch_size)
        ).run()
        return (
            [(kept.tuple_id, kept.identity()) for kept in result.tuples],
            result.output_series.points,
            {span: series.points for span, series in result.partial_series.items()},
            result.eddy_stats,
            result.final_time,
        )

    monkeypatch.setattr(IndexJoinModule, "process", recording)
    as_runs = facts()
    assert handed and all(item.__class__ is MatchRun for item in handed)
    assert sum(len(run.rows) for run in handed) > len(handed)
    monkeypatch.setattr(IndexJoinModule, "process", one_by_one)
    assert as_runs == facts()
    expected = oracle_identities(query, catalog)
    assert expected and sorted(identity for _, identity in as_runs[0]) == expected
