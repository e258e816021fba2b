"""Cross-engine correctness: every engine must return exactly the oracle result.

This is the central correctness property of the paper (Theorems 1 and 2):
whatever the routing policy, execution produces all result tuples and no
duplicates.  The tests sweep engines, policies, and query shapes, always
comparing against the brute-force oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.api import execute
from repro.engine.joins_engine import (
    EddyJoinsEngine,
    JoinSpec,
    choose_join_order,
)
from repro.errors import ExecutionError
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import (
    make_cyclic_triple,
    make_source_r,
    make_source_s,
    make_source_t,
)
from tests.conftest import oracle_identities
from tests.helpers import has_duplicates, time_to_count

POLICIES = ["naive", "benefit", "lottery", "random"]


def rst_catalog(seed=0, t_has_scan=True) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(70, 18, seed=seed))
    catalog.add_table(make_source_s(30))
    catalog.add_table(make_source_t(70, seed=seed + 1))
    catalog.add_scan("R", rate=150.0)
    catalog.add_index("S", ["x"], latency=0.02)
    catalog.add_index("S", ["y"], latency=0.02)
    if t_has_scan:
        catalog.add_scan("T", rate=120.0)
    catalog.add_index("T", ["key"], latency=0.02)
    return catalog


QUERIES = [
    "SELECT * FROM R, S WHERE R.a = S.x",
    "SELECT * FROM R, T WHERE R.key = T.key",
    "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key",
    "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key",
    "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 8",
    "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key AND T.key > 10 AND R.a < 12",
]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sql", QUERIES)
def test_stems_engine_matches_oracle(sql, policy):
    catalog = rst_catalog()
    query = parse_query(sql)
    result = execute(query, catalog, policy=policy)
    assert not has_duplicates(result)
    assert sorted(result.identities()) == oracle_identities(query, catalog)


@pytest.mark.parametrize("sql", QUERIES)
def test_eddy_joins_engine_matches_oracle(sql):
    catalog = rst_catalog()
    query = parse_query(sql)
    result = execute(query, catalog, engine="eddy-joins")
    assert not has_duplicates(result)
    assert sorted(result.identities()) == oracle_identities(query, catalog)


@pytest.mark.parametrize("t_has_scan", [True, False], ids=["t-scan", "t-index-only"])
@pytest.mark.parametrize("sql", QUERIES)
def test_static_engine_matches_oracle(sql, t_has_scan):
    # Index-only, T joins as the inner of an index join on T.key.
    catalog = rst_catalog(t_has_scan=t_has_scan)
    query = parse_query(sql)
    result = execute(query, catalog, engine="static")
    assert sorted(result.identities()) == oracle_identities(query, catalog)


@pytest.mark.parametrize("engine", ["eddy-joins", "static"])
def test_baseline_joins_by_the_index_the_join_binds(engine):
    # S is indexed on x and on y; R.key = S.y binds only the index on y.
    catalog = rst_catalog()
    query = parse_query("SELECT * FROM R, S WHERE R.key = S.y")
    result = execute(query, catalog, engine=engine)
    assert sorted(result.identities()) == oracle_identities(query, catalog)
    assert result.row_count == 30
    assert result.module_stats["join:index:0:S"]["unbindable"] == 0


def test_an_index_step_its_join_cannot_bind_is_refused():
    query = parse_query("SELECT * FROM R, S WHERE R.key = S.y")
    plan = [JoinSpec(kind="index", left=("R",), right="S", index_columns=("x",))]
    with pytest.raises(ExecutionError, match="the index join of 'S'"):
        EddyJoinsEngine(query, rst_catalog(), plan=plan)


def test_stems_engine_without_t_scan_uses_index_only():
    catalog = rst_catalog(t_has_scan=False)
    query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
    result = execute(query, catalog, policy="naive")
    assert sorted(result.identities()) == oracle_identities(query, catalog)
    assert result.total_index_lookups() > 0


def test_cyclic_query_all_engines():
    table_a, table_b, table_c = make_cyclic_triple(70, seed=9, match_fraction=0.5)
    catalog = Catalog()
    for table in (table_a, table_b, table_c):
        catalog.add_table(table)
        catalog.add_scan(table.name, rate=100.0)
    query = parse_query(
        "SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc AND C.ca = A.ca"
    )
    expected = oracle_identities(query, catalog)
    for policy in POLICIES:
        result = execute(query, catalog, policy=policy)
        assert sorted(result.identities()) == expected, policy
    assert sorted(execute(query, catalog, engine="static").identities()) == expected


def test_execute_api_dispatch(small_rt_catalog, q4_query):
    for engine in ("stems", "eddy-joins", "static"):
        result = execute(q4_query, small_rt_catalog, engine=engine)
        assert result.engine == engine
        assert result.row_count == 60
    with pytest.raises(Exception):
        execute(q4_query, small_rt_catalog, engine="volcano")


def test_execute_accepts_sql_strings(small_rt_catalog):
    result = execute("SELECT * FROM R, T WHERE R.key = T.key", small_rt_catalog)
    assert result.row_count == 60


def test_explicit_join_plan_variants(small_rt_catalog, q4_query):
    index_plan = [JoinSpec(kind="index", left=("R",), right="T",
                           index_columns=("key",), lookup_latency=0.05)]
    shj_plan = [JoinSpec(kind="shj", left=("R",), right="T")]
    for plan in (index_plan, shj_plan):
        result = execute(q4_query, small_rt_catalog, engine="eddy-joins", plan=plan)
        assert result.row_count == 60
        assert not has_duplicates(result)


def test_static_engine_join_order_heuristic(small_rt_catalog, q4_query):
    plan = choose_join_order(q4_query, small_rt_catalog)
    assert sorted([*plan[0].left, plan[0].right]) == ["R", "T"]


class TestResultObject:
    def test_rows_flattening(self, small_rt_catalog, q4_query):
        result = execute(q4_query, small_rt_catalog, engine="stems", policy="naive")
        rows = result.rows()
        assert len(rows) == result.row_count
        assert set(rows[0]) == {"R.key", "R.a", "T.key"}
        assert all(row["R.key"] == row["T.key"] for row in rows)

    def test_series_helpers(self, small_rt_catalog, q4_query):
        result = execute(q4_query, small_rt_catalog, engine="stems", policy="naive")
        series = result.output_series
        assert series.count_at(-1.0) == 0
        assert series.count_at(series.final_time) == series.final_count
        assert time_to_count(series, 1) is not None
        assert time_to_count(series, 10**9) is None
        sampled = [(t, series.count_at(t)) for t in (0.0, series.final_time)]
        assert sampled[-1][1] == series.final_count

    def test_summary_mentions_engine_and_counts(self, small_rt_catalog, q4_query):
        result = execute(q4_query, small_rt_catalog, engine="stems", policy="naive")
        text = result.summary()
        assert "stems" in text and "60 rows" in text

    def test_a_single_query_runs_as_admission_q0(self, small_rt_catalog, q4_query):
        result = execute(q4_query, small_rt_catalog, policy="naive")
        assert result.query_id == "q0"
        assert {tuple_.query_id for tuple_ in result.tuples} == {"q0"}


#: Each a valid setting on the ``stems`` engine, so the baseline refusal (and
#: not the SteM-bound check) is what rejects it; the first key names the case.
STEM_ONLY_OPTIONS = [
    {"strict_constraints": True},
    {"stem_max_size": 3},
    {"stem_eviction": "count", "stem_max_size": 3},
    {"stem_window": 2.0, "stem_eviction": "time-window"},
]


@pytest.mark.parametrize("option", STEM_ONLY_OPTIONS, ids=lambda option: next(iter(option)))
@pytest.mark.parametrize("engine", ["static", "eddy-joins"])
def test_baseline_engines_reject_stem_only_options(small_rt_catalog, q4_query, engine, option):
    pattern = f"does not take .*{next(iter(option))}.*configure the 'stems' engine only"
    with pytest.raises(ExecutionError, match=pattern):
        execute(q4_query, small_rt_catalog, engine=engine, **option)


@pytest.mark.parametrize("engine", ["static", "eddy-joins"])
def test_baseline_engines_accept_stem_only_defaults(small_rt_catalog, q4_query, engine):
    result = execute(
        q4_query, small_rt_catalog, engine=engine,
        strict_constraints=False, stem_max_size=None, stem_eviction=None, stem_window=None,
    )
    assert result.row_count == 60


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 1000),
    policy=st.sampled_from(POLICIES),
    r_rows=st.integers(5, 60),
    distinct=st.integers(1, 20),
)
def test_property_random_workloads_match_oracle(seed, policy, r_rows, distinct):
    """Property: for random workloads and any policy, results equal the oracle."""
    catalog = Catalog()
    catalog.add_table(make_source_r(r_rows, distinct, seed=seed))
    catalog.add_table(make_source_s(max(distinct, 1)))
    catalog.add_table(make_source_t(r_rows, seed=seed + 1))
    catalog.add_scan("R", rate=200.0)
    catalog.add_index("S", ["x"], latency=0.01)
    catalog.add_scan("T", rate=150.0)
    catalog.add_index("T", ["key"], latency=0.01)
    query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key")
    result = execute(query, catalog, policy=policy)
    assert not has_duplicates(result)
    assert sorted(result.identities()) == oracle_identities(query, catalog)
