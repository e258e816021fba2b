"""Tests for the static plan, plan selection, and the eddy-joins plan builder."""

import pytest

from repro.core.tuples import Result
from repro.engine.api import execute
from repro.engine.joins_engine import (
    EddyJoinsEngine,
    JoinSpec,
    choose_join_order,
    default_join_plan,
    run_eddy_joins,
)
from repro.errors import BindingError, ExecutionError, QueryError
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from tests.conftest import oracle_identities
from tests.helpers import has_duplicates


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table(make_source_r(60, 15, seed=31))
    cat.add_table(make_source_s(25))
    cat.add_table(make_source_t(60, seed=32))
    cat.add_scan("R", rate=100.0)
    cat.add_index("S", ["x"], latency=0.05)
    cat.add_scan("T", rate=100.0)
    cat.add_index("T", ["key"], latency=0.05)
    return cat


def plan_order(plan):
    """The aliases of a left-deep plan, in join order."""
    return [*plan[0].left, *(spec.right for spec in plan)]


class TestChooseJoinOrder:
    def test_starts_with_the_smallest_streamed_table_and_stays_connected(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        plan = choose_join_order(query, catalog)
        order = plan_order(plan)
        # S (25 rows) is the smallest table but has no scan: R and T tie at
        # 60 rows, and R comes first in FROM order.
        assert order == ["R", "S", "T"]
        assert [spec.kind for spec in plan] == ["index", "shj"]
        assert plan[0].index_columns == ("x",)
        # Every prefix extension is connected by a join predicate.
        for position in range(1, len(order)):
            assert query.predicates_between(order[:position], order[position])

    def test_two_table_order(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        assert sorted(plan_order(choose_join_order(query, catalog))) == ["R", "T"]

    def test_a_tie_starts_with_the_first_alias_in_from_order(self, catalog):
        # R and T both hold 60 rows; the choice must not follow set order.
        for sql, expected in (
            ("SELECT * FROM R, T WHERE R.key = T.key", ["R", "T"]),
            ("SELECT * FROM T, R WHERE R.key = T.key", ["T", "R"]),
        ):
            assert plan_order(choose_join_order(parse_query(sql), catalog)) == expected

    def test_an_index_only_table_waits_for_its_bind_column(self, catalog):
        # S's index binds x, which only T supplies: T joins first, though
        # S is the smaller table and comes earlier in FROM order.
        query = parse_query("SELECT * FROM S, R, T WHERE S.x = T.key AND R.key = T.key")
        plan = choose_join_order(query, catalog)
        assert plan_order(plan) == ["R", "T", "S"]
        assert plan[1].kind == "index" and plan[1].left == ("R", "T")
        result = execute(query, catalog, engine="static")
        assert sorted(result.identities()) == oracle_identities(query, catalog)
        assert result.row_count > 0

    def test_a_constant_binds_an_index_only_table(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE S.x = 3 AND R.a < S.y")
        plan = choose_join_order(query, catalog)
        assert plan == [JoinSpec(kind="index", left=("R",), right="S",
                                 index_columns=("x",), lookup_latency=0.05)]
        result = execute(query, catalog, engine="static")
        assert sorted(result.identities()) == oracle_identities(query, catalog)
        assert result.row_count > 0

    def test_a_query_without_a_scan_has_no_static_plan(self, catalog):
        with pytest.raises(ExecutionError, match="no table of"):
            choose_join_order(parse_query("SELECT * FROM S WHERE S.x = 3"), catalog)


class TestStaticPlan:
    def test_is_the_eddy_joins_engine_over_the_chosen_plan(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        result = execute(query, catalog, engine="static")
        fixed = run_eddy_joins(query, catalog, plan=choose_join_order(query, catalog))
        assert (result.engine, fixed.engine) == ("static", "eddy-joins")
        assert result.identities() == fixed.identities()
        assert result.output_series == fixed.output_series
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    def test_results_are_output_on_the_simulator_clock(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        result = execute(query, catalog, engine="static")
        assert all(type(t) is Result for t in result.tuples)
        assert len(result.output_series) == result.row_count > 1
        assert result.output_series.final_count == result.row_count
        assert result.completion_time == result.output_series.final_time
        assert 0 < result.completion_time <= result.final_time

    def test_empty_result_has_no_completion_time(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key AND R.a > 10000")
        result = execute(query, catalog, engine="static")
        assert result.row_count == 0
        assert result.completion_time is None

    def test_accepts_sql_text(self, catalog):
        result = execute("SELECT * FROM R, T WHERE R.key = T.key", catalog, engine="static")
        assert result.row_count == 60

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM R, S WHERE R.a = S.x",
            "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key AND T.key > 20",
        ],
    )
    def test_chosen_order_matches_oracle(self, catalog, sql):
        query = parse_query(sql)
        result = execute(query, catalog, engine="static")
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM S, T WHERE S.y = T.key AND S.x < 10",
            "SELECT * FROM S, T WHERE S.x < T.key AND T.key < 5",
        ],
    )
    def test_an_unbindable_query_is_refused(self, catalog, sql):
        # Nothing binds S's index column x: no engine can read S.
        with pytest.raises(BindingError):
            execute(sql, catalog, engine="static")

    @pytest.mark.parametrize(
        "argument",
        [
            {"plan": [JoinSpec(kind="mergesort", left=("R",), right="T")]},
            {"plan": [JoinSpec(kind="shj", left=("R",), right="T")]},
            {"policy": "lottery"},
            {"policy": "naive"},
        ],
        ids=lambda argument: next(iter(argument)),
    )
    def test_a_plan_or_policy_is_refused_not_dropped(self, catalog, argument):
        # The static engine picks its own plan and routes it naively: an
        # argument it would ignore is an error naming the argument.
        (name,) = argument
        with pytest.raises(ExecutionError, match=f"does not take {name}="):
            execute("SELECT * FROM R, T WHERE R.key = T.key", catalog, engine="static",
                    **argument)


class TestDefaultJoinPlan:
    def test_prefers_shj_when_scan_exists(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        plan = default_join_plan(query, catalog)
        assert [spec.kind for spec in plan] == ["shj"]

    def test_uses_index_join_for_index_only_tables(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        plan = default_join_plan(query, catalog)
        assert [spec.kind for spec in plan] == ["index"]
        assert plan[0].index_columns == ("x",)
        assert plan[0].lookup_latency == 0.05

    def test_left_deep_shape_for_three_tables(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        plan = default_join_plan(query, catalog)
        assert plan[0].left == ("R",)
        assert plan[1].left == ("R", "S")

    def test_table_without_any_access_method_rejected(self):
        catalog = Catalog()
        catalog.add_table(make_source_r(10, 5))
        catalog.add_table(make_source_s(10))
        catalog.add_scan("R")
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        with pytest.raises(QueryError):
            default_join_plan(query, catalog)


class TestEddyJoinsEngineValidation:
    def test_streamed_alias_without_scan_rejected(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        # An SHJ plan requires scans on both sides, but S has no scan AM.
        with pytest.raises(ExecutionError):
            EddyJoinsEngine(query, catalog, plan=[JoinSpec(kind="shj", left=("R",), right="S")])

    def test_unknown_join_kind_rejected(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        with pytest.raises(ExecutionError):
            EddyJoinsEngine(
                query, catalog, plan=[JoinSpec(kind="mergesort", left=("R",), right="T")]
            )

    def test_index_plan_without_columns_uses_catalog_index(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        engine = EddyJoinsEngine(
            query, catalog, plan=[JoinSpec(kind="index", left=("R",), right="T")]
        )
        result = engine.run()
        assert result.row_count == 60
        assert result.total_index_lookups() == 60

    def test_three_way_left_deep_plan_runs_correctly(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        engine = EddyJoinsEngine(query, catalog)
        result = engine.run()
        assert sorted(result.identities()) == oracle_identities(query, catalog)
        assert not has_duplicates(result)
