"""Tests for the static engine's binary joins: hash join ≡ nested loops."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.joins.base import EquiJoinSpec, extract_equi_join, merge, satisfies, singleton
from repro.joins.hash_join import HashJoin
from repro.joins.nested_loops import NestedLoopsJoin
from repro.query.predicates import Comparison, selection
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.reference.oracle import composite_key
from tests.helpers import equi_join

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")


def r_input(pairs):
    return [singleton("R", Row("R", R_SCHEMA, values)) for values in pairs]


def s_input(pairs):
    return [singleton("S", Row("S", S_SCHEMA, values)) for values in pairs]


def reference_join(left, right, predicates):
    """Ground truth via naive nested loops."""
    oracle = NestedLoopsJoin(predicates, {"R"}, {"S"})
    return sorted(composite_key(c) for c in oracle.join(left, right))


EQUI = [equi_join("R.a", "S.x")]

ALGORITHMS = [
    lambda: HashJoin(EQUI, {"R"}, {"S"}),
]


@pytest.mark.parametrize("factory", ALGORITHMS)
def test_all_algorithms_agree_with_nested_loops(factory):
    left = r_input([(i, i % 5) for i in range(20)])
    right = s_input([(j, j) for j in range(8)])
    expected = reference_join(left, right, EQUI)
    operator = factory()
    actual = sorted(composite_key(c) for c in operator.join(left, right))
    assert actual == expected
    assert len(actual) > 0


@pytest.mark.parametrize("factory", ALGORITHMS)
def test_empty_inputs(factory):
    operator = factory()
    assert list(operator.join([], s_input([(1, 1)]))) == []
    operator = factory()
    assert list(operator.join(r_input([(1, 1)]), [])) == []


def test_duplicate_keys_produce_cross_products():
    left = r_input([(0, 7), (1, 7), (2, 7)])
    right = s_input([(7, 0), (7, 1)])
    for factory in ALGORITHMS:
        operator = factory()
        results = list(operator.join(left, right))
        assert len(results) == 6


def test_residual_predicates_are_applied():
    predicates = [equi_join("R.a", "S.x"), selection("S.y", ">", 0)]
    left = r_input([(0, 7), (1, 8)])
    right = s_input([(7, 0), (8, 5)])
    operator = HashJoin(predicates, {"R"}, {"S"})
    results = list(operator.join(left, right))
    assert len(results) == 1
    assert results[0]["S"]["y"] == 5


def test_equi_join_required_by_hash_join():
    non_equi = [selection("R.a", ">", 0)]
    with pytest.raises(QueryError):
        HashJoin(non_equi, {"R"}, {"S"})


def test_theta_join_falls_back_to_nested_loops():
    predicates = [Comparison("R.a", "<", "S.x")]
    left = r_input([(0, 1), (1, 5)])
    right = s_input([(3, 3)])
    operator = NestedLoopsJoin(predicates, {"R"}, {"S"})
    results = list(operator.join(left, right))
    assert len(results) == 1 and results[0]["R"]["a"] == 1
    assert results[0]["R"]["a"] < results[0]["S"]["x"]


class TestBaseHelpers:
    def test_merge_rejects_overlap(self):
        left = singleton("R", Row("R", R_SCHEMA, (0, 1)))
        with pytest.raises(QueryError):
            merge(left, left)

    def test_extract_equi_join_orientation(self):
        spec = extract_equi_join([equi_join("S.x", "R.a")], {"R"}, {"S"})
        assert spec.left_columns == (("R", "a"),)
        assert spec.right_columns == (("S", "x"),)
        assert spec.residual == ()

    def test_extract_equi_join_residual(self):
        predicates = [equi_join("R.a", "S.x"), selection("R.a", ">", 2)]
        spec = extract_equi_join(predicates, {"R"}, {"S"})
        assert len(spec.residual) == 1


@settings(max_examples=30, deadline=None)
@given(
    left_keys=st.lists(st.integers(0, 6), max_size=25),
    right_keys=st.lists(st.integers(0, 6), max_size=25),
)
def test_property_all_equijoin_algorithms_equivalent(left_keys, right_keys):
    """Property: every algorithm returns exactly the nested-loops result set."""
    left = r_input([(i, key) for i, key in enumerate(left_keys)])
    right = s_input([(key, i) for i, key in enumerate(right_keys)])
    expected = reference_join(left, right, EQUI)
    for factory in ALGORITHMS:
        operator = factory()
        actual = sorted(composite_key(c) for c in operator.join(left, right))
        assert actual == expected


#: (predicates, R rows as (key, a), S rows as (x, y)): one shape per case.
JOIN_CASES = {
    "one-to-one": (EQUI, [(i, i) for i in range(6)], [(j, j) for j in range(6)]),
    "many-to-one": (EQUI, [(i, i % 3) for i in range(12)], [(j, -j) for j in range(3)]),
    "many-to-many": (
        EQUI,
        [(i, i % 2) for i in range(8)],
        [(j % 2, j) for j in range(6)],
    ),
    "disjoint-keys": (EQUI, [(i, i) for i in range(5)], [(j, j) for j in range(10, 15)]),
    "reversed-orientation": (
        [equi_join("S.x", "R.a")],
        [(i, i % 4) for i in range(10)],
        [(j, j) for j in range(4)],
    ),
    "two-column-key": (
        [equi_join("R.a", "S.x"), equi_join("R.key", "S.y")],
        [(i, i % 3) for i in range(9)],
        [(j % 3, j) for j in range(9)],
    ),
    "left-selection-residual": (
        [equi_join("R.a", "S.x"), selection("R.key", ">=", 4)],
        [(i, i % 3) for i in range(9)],
        [(j, j) for j in range(3)],
    ),
    "cross-side-theta-residual": (
        [equi_join("R.a", "S.x"), Comparison("R.key", "<", "S.y")],
        [(i, i % 2) for i in range(8)],
        [(j % 2, j) for j in range(8)],
    ),
    "null-keys": (
        EQUI,
        [(0, None), (1, 1), (2, None), (3, 2)],
        [(None, 0), (1, 1), (None, 2), (2, 3)],
    ),
    "duplicate-rows": (EQUI, [(0, 5), (0, 5), (1, 5)], [(5, 0), (5, 0)]),
}


@pytest.mark.parametrize("case", sorted(JOIN_CASES))
def test_hash_join_agrees_with_nested_loops(case):
    predicates, left_rows, right_rows = JOIN_CASES[case]
    left, right = r_input(left_rows), s_input(right_rows)
    expected = reference_join(left, right, predicates)
    operator = HashJoin(predicates, {"R"}, {"S"})
    actual = sorted(composite_key(c) for c in operator.join(left, right))
    assert actual == expected


def test_null_keys_never_match():
    left = r_input([(0, None), (1, None)])
    right = s_input([(None, 0), (None, 1)])
    assert list(HashJoin(EQUI, {"R"}, {"S"}).join(left, right)) == []
    assert list(NestedLoopsJoin(EQUI, {"R"}, {"S"}).join(left, right)) == []


def test_hash_join_stats_count_inputs_and_results():
    operator = HashJoin(EQUI, {"R"}, {"S"})
    left = r_input([(i, i % 3) for i in range(9)])
    right = s_input([(0, 0), (1, 1), (7, 7)])
    results = list(operator.join(left, right))
    assert operator.stats == {"left_rows": 9, "right_rows": 3, "results": len(results)}
    assert len(results) == 6


def test_nested_loops_stats_count_inputs_and_results():
    operator = NestedLoopsJoin(EQUI, {"R"}, {"S"})
    left = r_input([(i, i % 3) for i in range(9)])
    right = s_input([(0, 0), (1, 1), (7, 7)])
    results = list(operator.join(left, right))
    assert operator.stats == {"left_rows": 9, "right_rows": 3, "results": len(results)}


def test_nested_loops_without_predicates_is_a_cross_product():
    operator = NestedLoopsJoin([], {"R"}, {"S"})
    results = list(operator.join(r_input([(0, 0), (1, 1)]), s_input([(5, 5)] * 3)))
    assert len(results) == 6
    assert all(set(result) == {"R", "S"} for result in results)


def test_hash_join_over_a_composite_left_input():
    """A left-deep step: the probe side carries two aliases already joined."""
    t_schema = Schema.of("key:int", "z:int")
    pairs = [
        merge(left, right)
        for left in r_input([(i, i % 4) for i in range(8)])
        for right in s_input([(j, j % 3) for j in range(4)])
        if left["R"]["a"] == right["S"]["x"]
    ]
    third = [singleton("T", Row("T", t_schema, (k, k * 10))) for k in range(3)]
    predicates = [equi_join("S.y", "T.key")]
    expected = sorted(
        composite_key(c)
        for c in NestedLoopsJoin(predicates, {"R", "S"}, {"T"}).join(pairs, third)
    )
    operator = HashJoin(predicates, {"R", "S"}, {"T"})
    actual = sorted(composite_key(c) for c in operator.join(pairs, third))
    assert actual == expected
    assert all(set(c) == {"R", "S", "T"} for c in operator.join(pairs, third))
    assert len(actual) == len(pairs)  # every S.y in 0..2 has one T row


def test_inputs_sharing_an_alias_are_rejected():
    with pytest.raises(QueryError):
        HashJoin(EQUI, {"R", "S"}, {"S"})
    with pytest.raises(QueryError):
        NestedLoopsJoin([], {"R"}, {"R"})


class TestEquiJoinSpec:
    def test_no_predicates_means_no_keys(self):
        spec = extract_equi_join([], {"R"}, {"S"})
        assert not spec.has_keys
        assert spec == EquiJoinSpec((), (), ())

    def test_keys_read_each_side_in_column_order(self):
        spec = extract_equi_join(
            [equi_join("R.a", "S.x"), equi_join("S.y", "R.key")], {"R"}, {"S"}
        )
        left = singleton("R", Row("R", R_SCHEMA, (3, 4)))
        right = singleton("S", Row("S", S_SCHEMA, (4, 3)))
        assert spec.left_key(left) == (4, 3)
        assert spec.right_key(right) == (4, 3)

    def test_same_side_equality_is_residual(self):
        spec = extract_equi_join([equi_join("R.a", "R.key")], {"R"}, {"S"})
        assert not spec.has_keys
        assert len(spec.residual) == 1

    def test_equality_with_a_constant_is_residual(self):
        spec = extract_equi_join([selection("R.a", "=", 3)], {"R"}, {"S"})
        assert not spec.has_keys
        assert len(spec.residual) == 1

    def test_column_inequality_is_residual(self):
        spec = extract_equi_join([Comparison("R.a", "!=", "S.x")], {"R"}, {"S"})
        assert not spec.has_keys
        assert len(spec.residual) == 1


class TestCompositeHelpers:
    def test_merge_leaves_its_inputs_unchanged(self):
        left = singleton("R", Row("R", R_SCHEMA, (0, 1)))
        right = singleton("S", Row("S", S_SCHEMA, (1, 2)))
        merged = merge(left, right)
        assert set(merged) == {"R", "S"}
        assert set(left) == {"R"} and set(right) == {"S"}

    def test_satisfies_with_no_predicates_is_true(self):
        assert satisfies(singleton("R", Row("R", R_SCHEMA, (0, 1))), [])

    def test_satisfies_needs_every_predicate(self):
        composite = singleton("R", Row("R", R_SCHEMA, (0, 1)))
        assert satisfies(composite, [selection("R.a", "=", 1)])
        assert not satisfies(
            composite, [selection("R.a", "=", 1), selection("R.key", ">", 0)]
        )
