"""Tests for the Query object."""

import pytest

from repro.errors import QueryError, UnknownTableError
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.expressions import ColumnRef
from repro.query.query import AggregateSpec, Query, TableRef
from tests.helpers import equi_join


class TestQuery:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=["R", "R"])

    def test_empty_from_rejected(self):
        with pytest.raises(QueryError):
            Query(tables=[])

    def test_unknown_alias_in_predicate_rejected(self):
        with pytest.raises(UnknownTableError):
            Query(tables=["R"], predicates=[equi_join("R.a", "S.x")])

    def test_unknown_alias_in_projection_rejected(self):
        with pytest.raises(UnknownTableError):
            Query(tables=["R"], projections=["S.x"])

    def test_predicate_classification(self):
        query = parse_query(
            "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key AND T.key > 5"
        )
        assert len(query.equi_join_predicates) == 2
        assert [p.aliases() for p in query.selection_predicates] == [{"T"}]
        assert query.predicates_on("T") == (query.selection_predicates[0],)
        assert query.predicates_on("R") == ()

    def test_predicates_between(self):
        query = parse_query(
            "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key"
        )
        between = query.predicates_between(["R"], ["S"])
        assert len(between) == 1 and between[0].aliases() == {"R", "S"}
        assert query.predicates_between(["R"], ["T"]) == ()
        both = query.predicates_between(["R", "S"], ["T"])
        assert len(both) == 1 and both[0].aliases() == {"S", "T"}

    def test_join_partners_and_columns(self):
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key")
        adjacency = PlanLayout(query).adjacency
        assert adjacency == {"R": 0b110, "S": 0b001, "T": 0b001}
        assert query.join_columns_of("R") == ("a", "key")

    def test_table_of_unknown_alias_raises(self):
        query = parse_query("SELECT * FROM R r1, S WHERE r1.a = S.x")
        assert query.table_of("r1") == "R"
        with pytest.raises(UnknownTableError):
            query.table_of("R")

    def test_aggregate_accessors(self):
        query = parse_query("SELECT a, count(*), sum(key) FROM R GROUP BY a")
        assert query.aggregate_alias == "R"
        assert query.aggregate_labels == ("R.a", "count(*)", "sum(R.key)")
        with pytest.raises(QueryError):
            parse_query("SELECT * FROM R").aggregate_alias

    def test_aggregate_spec_labels_and_validation(self):
        assert AggregateSpec("count").label == "count(*)"
        assert str(AggregateSpec("sum", ColumnRef("R", "a"))) == "sum(R.a)"
        with pytest.raises(QueryError):
            AggregateSpec("median", ColumnRef("R", "a"))
        with pytest.raises(QueryError):
            AggregateSpec("sum")

    def test_table_ref_str(self):
        assert str(TableRef.of("R")) == "R"
        assert str(TableRef.of("R", "r1")) == "R AS r1"

