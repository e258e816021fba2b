"""Tests for multi-way pipelines and the brute-force oracle."""

import itertools

import pytest

from repro.errors import QueryError
from repro.joins.pipeline import base_input, execute_left_deep
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_cyclic_triple, make_source_r, make_source_s, make_source_t
from tests.reference.oracle import composite_key, evaluate_query_oracle


def make_catalog():
    cat = Catalog()
    cat.add_table(make_source_r(80, 20, seed=1))
    cat.add_table(make_source_s(30))
    cat.add_table(make_source_t(80, seed=2))
    return cat


@pytest.fixture
def catalog():
    return make_catalog()


THREE_WAY = "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key"


@pytest.fixture(scope="module")
def three_way():
    """One catalog and the oracle's answer to ``THREE_WAY`` over it."""
    cat = make_catalog()
    query = parse_query(THREE_WAY)
    return cat, query, ids(evaluate_query_oracle(query, cat))


def ids(composites):
    return sorted(composite_key(c) for c in composites)


class TestBaseInput:
    def test_selection_pushdown(self, catalog):
        query = parse_query("SELECT * FROM R WHERE R.a < 5")
        rows = base_input(query, catalog, "R")
        assert all(composite["R"]["a"] < 5 for composite in rows)
        assert 0 < len(rows) < 80

    def test_no_selection_keeps_every_row_in_table_order(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        rows = base_input(query, catalog, "R")
        assert [composite["R"] for composite in rows] == list(catalog.table("R"))

    def test_only_the_aliases_own_selections_apply(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x AND S.y > 1000")
        assert len(base_input(query, catalog, "R")) == 80
        assert all(composite["S"]["y"] > 1000 for composite in base_input(query, catalog, "S"))

    def test_composites_are_keyed_by_alias_not_table(self, catalog):
        query = parse_query("SELECT * FROM R AS r1 WHERE r1.a < 5")
        rows = base_input(query, catalog, "r1")
        assert rows and all(set(composite) == {"r1"} for composite in rows)


class TestLeftDeepExecution:
    def test_two_way_matches_oracle(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        assert ids(execute_left_deep(query, catalog)) == ids(evaluate_query_oracle(query, catalog))

    def test_three_way_matches_oracle(self, catalog):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        expected = ids(evaluate_query_oracle(query, catalog))
        assert ids(execute_left_deep(query, catalog)) == expected
        assert ids(execute_left_deep(query, catalog, order=["T", "S", "R"])) == expected

    def test_selections_and_joins_together(self, catalog):
        query = parse_query(
            "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 10 AND T.key > 5"
        )
        assert ids(execute_left_deep(query, catalog)) == ids(
            evaluate_query_oracle(query, catalog)
        )

    def test_cross_product_when_no_predicate(self, catalog):
        query = parse_query("SELECT * FROM S, R")
        results = list(execute_left_deep(query, catalog, order=["S", "R"]))
        assert len(results) == 30 * 80

    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("RST")])
    def test_every_join_order_matches_oracle(self, three_way, order):
        # Orders starting R, T hold a cross-product step (no R-T predicate).
        catalog, query, expected = three_way
        assert ids(execute_left_deep(query, catalog, order=list(order))) == expected

    def test_theta_join_step_matches_oracle(self, catalog):
        query = parse_query("SELECT * FROM S, T WHERE S.x < T.key AND T.key < 10")
        expected = ids(evaluate_query_oracle(query, catalog))
        assert expected
        assert ids(execute_left_deep(query, catalog)) == expected

    def test_self_join_matches_oracle(self, catalog):
        query = parse_query(
            "SELECT * FROM R AS r1, R AS r2 WHERE r1.a = r2.a AND r1.key < r2.key"
        )
        expected = ids(evaluate_query_oracle(query, catalog))
        assert expected
        assert ids(execute_left_deep(query, catalog)) == expected

    def test_a_selection_that_drops_every_row_gives_no_results(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x AND R.a < 0")
        assert list(execute_left_deep(query, catalog)) == []

    def test_join_kind_is_not_an_option(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        with pytest.raises(TypeError):
            execute_left_deep(query, catalog, join_kind="sort-merge")

    def test_invalid_order_rejected(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        with pytest.raises(QueryError):
            list(execute_left_deep(query, catalog, order=["R"]))

    def test_cyclic_query_closes_the_cycle(self):
        table_a, table_b, table_c = make_cyclic_triple(60, seed=4, match_fraction=0.5)
        catalog = Catalog()
        for table in (table_a, table_b, table_c):
            catalog.add_table(table)
        query = parse_query(
            "SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc AND C.ca = A.ca"
        )
        expected = ids(evaluate_query_oracle(query, catalog))
        actual = ids(execute_left_deep(query, catalog))
        assert actual == expected
        # The cycle-closing predicate must actually filter something.
        no_cycle = parse_query("SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc")
        assert len(ids(evaluate_query_oracle(no_cycle, catalog))) > len(expected)


class TestOracle:
    def test_composite_key_ignores_alias_insertion_order(self, catalog):
        r_row, s_row = catalog.table("R").rows[0], catalog.table("S").rows[0]
        assert composite_key({"R": r_row, "S": s_row}) == composite_key(
            {"S": s_row, "R": r_row}
        )
        assert composite_key({"R": r_row}) != composite_key({"R": catalog.table("R").rows[1]})

    def test_oracle_on_a_hand_counted_join(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x AND S.x < 3")
        expected = sum(
            1 for row in catalog.table("R") for other in catalog.table("S")
            if row["a"] == other["x"] and other["x"] < 3
        )
        results = evaluate_query_oracle(query, catalog)
        assert len(results) == expected > 0
        assert len(set(ids(results))) == len(results)
