"""Tests for expressions and predicates."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QueryError
from repro.query.expressions import ColumnRef, Literal, as_expression
from repro.query.predicates import (
    Comparison,
    InList,
    TruePredicate,
    selection,
)
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import equi_join

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")


def components(r_values=(1, 10), s_values=(10, 10)):
    return {
        "R": Row("R", R_SCHEMA, r_values),
        "S": Row("S", S_SCHEMA, s_values),
    }


class TestExpressions:
    def test_column_ref_parse_and_eval(self):
        ref = ColumnRef.parse("R.a")
        assert ref.alias == "R" and ref.column == "a"
        assert ref.evaluate(components()) == 10

    def test_column_ref_default_alias(self):
        ref = ColumnRef.parse("a", default_alias="R")
        assert ref.alias == "R"
        with pytest.raises(QueryError):
            ColumnRef.parse("a")

    def test_column_ref_missing_alias_raises(self):
        ref = ColumnRef("T", "z")
        with pytest.raises(QueryError):
            ref.evaluate(components())

    def test_literal(self):
        assert Literal(7).evaluate({}) == 7
        assert Literal("x").aliases() == frozenset()

    def test_rendering(self):
        assert str(ColumnRef("R", "a")) == "R.a"
        assert str(Literal("x")) == "'x'"
        assert str(Literal(3)) == "3"

    def test_can_evaluate_needs_every_alias(self):
        assert ColumnRef("R", "a").can_evaluate({"R", "S"})
        assert not ColumnRef("R", "a").can_evaluate({"S"})
        assert Literal(1).can_evaluate(set())

    def test_as_expression_coercion(self):
        assert isinstance(as_expression("R.a"), ColumnRef)
        assert isinstance(as_expression(5), Literal)
        assert isinstance(as_expression(ColumnRef("R", "a")), ColumnRef)


class TestComparison:
    def test_equi_join_detection(self):
        predicate = equi_join("R.a", "S.x")
        assert predicate.is_equi_join
        assert not predicate.is_selection
        assert predicate.aliases() == {"R", "S"}

    def test_selection_detection(self):
        predicate = selection("R.a", "<", 100)
        assert predicate.is_selection
        assert not predicate.is_equi_join

    def test_evaluation_all_operators(self):
        data = components(r_values=(1, 10), s_values=(10, 12))
        assert Comparison("R.a", "=", "S.x").evaluate(data)
        assert not Comparison("R.a", "=", "S.y").evaluate(data)
        assert Comparison("R.a", "<", "S.y").evaluate(data)
        assert Comparison("S.y", ">=", "R.a").evaluate(data)
        assert Comparison("R.a", "!=", "S.y").evaluate(data)
        assert Comparison("R.a", "<=", "S.x").evaluate(data)

    def test_nulls_compare_false(self):
        data = {"R": Row("R", R_SCHEMA, (1, None))}
        assert not selection("R.a", "=", 5).evaluate(data)
        assert not selection("R.a", "!=", 5).evaluate(data)

    def test_mixed_type_comparison_is_false_not_error(self):
        data = {"R": Row("R", R_SCHEMA, (1, 10))}
        assert not Comparison("R.a", "<", Literal("text")).evaluate(data)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("R.a", "~", "S.x")

    def test_column_for_and_other_side(self):
        predicate = equi_join("R.a", "S.x")
        assert predicate.column_for("R").column == "a"
        assert predicate.column_for("S").column == "x"
        assert predicate.column_for("T") is None
        other = predicate.other_side("R")
        assert isinstance(other, ColumnRef) and other.alias == "S"
        with pytest.raises(QueryError):
            predicate.other_side("T")

    def test_predicate_ids_are_unique(self):
        ids = {selection("R.a", "<", i).predicate_id for i in range(20)}
        assert len(ids) == 20


class TestOtherPredicates:
    def test_in_list(self):
        predicate = InList("R.a", [1, 2, 3])
        assert predicate.evaluate({"R": Row("R", R_SCHEMA, (0, 2))})
        assert not predicate.evaluate({"R": Row("R", R_SCHEMA, (0, 9))})
        assert predicate.is_selection

    def test_true_predicate(self):
        assert TruePredicate().evaluate({})
        assert TruePredicate().aliases() == frozenset()

    def test_rendering(self):
        assert str(InList("R.a", [3, 1])) == "R.a IN (1, 3)"
        assert str(TruePredicate()) == "TRUE"
        assert repr(selection("R.a", "<", 5)) == "Comparison(R.a < 5)"

    def test_priority_attribute(self):
        predicate = selection("R.a", "<", 5, priority=3.0)
        assert predicate.priority == 3.0


@given(left=st.integers(-50, 50), right=st.integers(-50, 50))
def test_comparison_matches_python_semantics(left, right):
    """Property: Comparison agrees with Python's comparison operators."""
    data = {
        "R": Row("R", R_SCHEMA, (1, left)),
        "S": Row("S", S_SCHEMA, (right, right)),
    }
    assert Comparison("R.a", "<", "S.x").evaluate(data) == (left < right)
    assert Comparison("R.a", "=", "S.x").evaluate(data) == (left == right)
    assert Comparison("R.a", ">=", "S.x").evaluate(data) == (left >= right)
