"""Tests for the static engine, plan selection, and the eddy-joins plan builder."""

import pytest

from repro.core.tuples import QTuple, Result, install_id_allocator
from repro.errors import ExecutionError, QueryError
from repro.engine.joins_engine import EddyJoinsEngine, JoinSpec, default_join_plan
from repro.engine.static_engine import StaticEngine, choose_join_order, run_static
from repro.joins.pipeline import execute_left_deep
from repro.query.layout import PlanLayout
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


class TestChooseJoinOrder:
    def test_starts_with_smallest_table_and_stays_connected(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        order = choose_join_order(query, catalog)
        assert order[0] == "S"  # 25 rows, the smallest
        assert set(order) == {"R", "S", "T"}
        # Every prefix extension is connected by a join predicate.
        for position in range(1, len(order)):
            assert query.predicates_between(order[:position], order[position])

    def test_two_table_order(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        assert sorted(choose_join_order(query, catalog)) == ["R", "T"]

    def test_a_tie_starts_with_the_first_alias_in_from_order(self, catalog):
        # R and T both hold 60 rows; the choice must not follow set order.
        for sql, expected in (
            ("SELECT * FROM R, T WHERE R.key = T.key", ["R", "T"]),
            ("SELECT * FROM T, R WHERE R.key = T.key", ["T", "R"]),
        ):
            assert choose_join_order(parse_query(sql), catalog) == expected


class TestStaticEngine:
    def test_results_match_oracle_with_explicit_order(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        engine = StaticEngine(query, catalog, order=["R", "S", "T"])
        result = engine.run()
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    def test_batch_output_series_is_a_single_step(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        result = StaticEngine(query, catalog).run()
        assert len(result.output_series) == 1
        assert result.output_series.final_count == result.row_count
        assert result.completion_time == result.final_time > 0

    def test_empty_result_has_no_completion_time(self, catalog):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key AND R.a > 10000")
        result = StaticEngine(query, catalog).run()
        assert result.row_count == 0
        assert result.completion_time is None

    def test_accepts_sql_text(self, catalog):
        result = StaticEngine("SELECT * FROM R, T WHERE R.key = T.key", catalog).run()
        assert result.row_count == 60

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM R, S WHERE R.a = S.x",
            "SELECT * FROM S, T WHERE S.y = T.key AND S.x < 10",
            "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key AND T.key > 20",
            "SELECT * FROM S, T WHERE S.x < T.key AND T.key < 5",
        ],
    )
    def test_chosen_order_matches_oracle(self, catalog, sql):
        query = parse_query(sql)
        result = run_static(query, catalog)
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    def test_results_are_built_from_the_composites(self, catalog):
        """A static result is a ``Result`` made from its composite: ids,
        identities, components and build timestamps equal what a full
        ``QTuple`` per composite gives."""
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        engine = StaticEngine(query, catalog)
        result = engine.run()
        install_id_allocator()
        layout = PlanLayout(query)
        reference = [
            QTuple(dict(composite), layout=layout)
            for composite in execute_left_deep(query, catalog, order=engine.order)
        ]
        assert result.row_count == len(reference) > 0
        assert all(type(t) is Result for t in result.tuples)

        def view(t):
            return (t.tuple_id, t.identity(), t.components, t.build_timestamps)

        assert list(map(view, result.tuples)) == list(map(view, reference))

    def test_join_kind_is_not_an_option(self, catalog):
        sql = "SELECT * FROM R, T WHERE R.key = T.key"
        with pytest.raises(TypeError):
            StaticEngine(sql, catalog, join_kind="grace")
        with pytest.raises(TypeError):
            run_static(sql, catalog, join_kind="grace")


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
