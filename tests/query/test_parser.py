"""Tests for the SQL parser."""

import pytest

from repro.errors import ParseError, QueryError
from repro.query.expressions import ColumnRef, Literal
from repro.query.parser import parse_query
from repro.query.predicates import Comparison, InList


class TestBasicParsing:
    def test_select_star_two_tables(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        assert query.alias_order == ("R", "S")
        assert query.projections == () and query.aggregates == ()
        assert len(query.predicates) == 1
        assert query.predicates[0].is_equi_join

    def test_keywords_are_case_insensitive(self):
        query = parse_query("select * from R where R.a = 1")
        assert query.alias_order == ("R",)

    def test_projection_list(self):
        query = parse_query("SELECT R.a, S.y FROM R, S WHERE R.a = S.x")
        assert [(p.alias, p.column) for p in query.projections] == [("R", "a"), ("S", "y")]

    def test_aliases_with_and_without_as(self):
        query = parse_query("SELECT * FROM Orders AS o, Customers c WHERE o.cid = c.id")
        assert query.alias_order == ("o", "c")
        assert query.table_of("o") == "Orders"
        assert query.table_of("c") == "Customers"

    def test_multiple_conjuncts(self):
        query = parse_query(
            "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key AND R.a < 100"
        )
        assert len(query.predicates) == 3
        assert len(query.join_predicates) == 2
        assert len(query.selection_predicates) == 1

    def test_literals(self):
        query = parse_query(
            "SELECT * FROM R WHERE R.a = 3 AND R.name = 'bob''s' AND R.score = 1.5 AND R.ok = true"
        )
        values = []
        for predicate in query.predicates:
            assert isinstance(predicate, Comparison)
            assert isinstance(predicate.right, Literal)
            values.append(predicate.right.value)
        assert values == [3, "bob's", 1.5, True]

    def test_unqualified_columns_single_table(self):
        query = parse_query("SELECT a FROM R WHERE a < 5 AND key = 3")
        assert query.projections[0] == ColumnRef("R", "a")
        assert all(p.aliases() == {"R"} for p in query.predicates)

    def test_in_list(self):
        query = parse_query("SELECT * FROM R WHERE R.a IN (1, 2, 3)")
        predicate = query.predicates[0]
        assert isinstance(predicate, InList)
        assert predicate.values == frozenset({1, 2, 3})

    def test_negative_literals(self):
        query = parse_query(
            "SELECT * FROM R WHERE R.a > -5 AND R.b = -2.5 AND R.c IN (-1, 2)"
        )
        comparisons = [p for p in query.predicates if isinstance(p, Comparison)]
        assert {p.right.value for p in comparisons} == {-5, -2.5}
        (in_list,) = [p for p in query.predicates if isinstance(p, InList)]
        assert in_list.values == frozenset({-1, 2})

    def test_trailing_semicolon(self):
        query = parse_query("SELECT * FROM R;")
        assert query.alias_order == ("R",)

    def test_no_where_clause(self):
        query = parse_query("SELECT * FROM R, S")
        assert query.predicates == ()

    def test_self_join_aliases(self):
        query = parse_query("SELECT * FROM R r1, R r2 WHERE r1.a = r2.key")
        assert query.aliases_of_table("R") == ("r1", "r2")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM R",                                  # missing SELECT
            "SELECT * R",                              # missing FROM
            "SELECT * FROM R WHERE",                   # dangling WHERE
            "SELECT * FROM R WHERE R.a >",             # missing operand
            "SELECT * FROM R WHERE R.a ! 3",           # bad operator
            "SELECT * FROM R extra garbage here = 3",  # trailing tokens
            "SELECT * FROM R WHERE R.a IN ()",         # empty IN list
            "SELECT * FROM WHERE R.a = 1",             # keyword as table
            "SELECT * FROM R WHERE R.a = $5",          # bad character
        ],
    )
    def test_invalid_queries_raise(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_unqualified_column_in_multi_table_query(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM R, S WHERE R.a = S.x")

    def test_in_requires_column(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM R WHERE 3 IN (1, 2)")


class TestRoundTripWithPaperQueries:
    def test_q1(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        assert query.join_columns_of("R") == ("a",)
        assert query.join_columns_of("S") == ("x",)

    def test_q4(self):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        assert query.join_columns_of("R") == query.join_columns_of("T") == ("key",)

    def test_three_way_example(self):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        assert len(query.predicates_between("S", ["R", "T"])) == 2
        assert query.join_columns_of("S") == ("x", "y")


class TestGroupByParsing:
    def test_aggregate_select_list(self):
        query = parse_query(
            "SELECT a, count(*), sum(key), avg(key), min(key), max(key) "
            "FROM R WHERE R.key < 100 GROUP BY a"
        )
        assert query.is_aggregate
        assert query.group_by == (ColumnRef("R", "a"),)
        assert [spec.func for spec in query.aggregates] == [
            "count", "sum", "avg", "min", "max",
        ]
        assert query.aggregates[0].column is None  # count(*)
        assert query.aggregates[1].column == ColumnRef("R", "key")
        assert query.aggregate_labels == (
            "R.a", "count(*)", "sum(R.key)", "avg(R.key)",
            "min(R.key)", "max(R.key)",
        )
        assert len(query.predicates) == 1

    def test_group_column_order_is_clause_order_not_select_order(self):
        query = parse_query(
            "SELECT count(*), b, a FROM R GROUP BY a, b"
        )
        assert [column.column for column in query.group_by] == ["a", "b"]

    def test_global_aggregate_without_group_by(self):
        query = parse_query("SELECT count(*), sum(key) FROM R")
        assert query.is_aggregate
        assert query.group_by == ()
        assert query.aggregate_labels == ("count(*)", "sum(R.key)")

    def test_keywords_case_insensitive_and_qualified_columns(self):
        query = parse_query("select R.a, COUNT(*) from R group BY R.a")
        assert query.is_aggregate
        assert query.group_by == (ColumnRef("R", "a"),)

    def test_count_is_not_reserved(self):
        # ``count`` is an aggregate only when followed by ``(`` — as a bare
        # identifier it stays an ordinary column name.
        query = parse_query("SELECT count FROM R")
        assert not query.is_aggregate
        assert [str(c) for c in query.projections] == ["R.count"]

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT count(*) FROM R GROUP BY",            # dangling GROUP BY
            "SELECT count(*) FROM R GROUP a",             # GROUP without BY
            "SELECT b, count(*) FROM R GROUP BY a",       # b not grouped
            "SELECT median(key) FROM R GROUP BY a",       # unknown function
            "SELECT sum(*) FROM R GROUP BY a",            # sum(*) undefined
        ],
    )
    def test_malformed_aggregate_grammar_raises(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM R GROUP BY a",                 # no aggregate
            "SELECT count(*) FROM R, T GROUP BY R.a",     # multi-table
            "SELECT count(*) FROM R GROUP BY a, a",       # duplicate group col
        ],
    )
    def test_invalid_aggregate_semantics_raise(self, text):
        with pytest.raises(QueryError):
            parse_query(text)
