"""Multi-way left-deep join-module plans, and the brute-force oracle they are
checked against."""

import itertools

import pytest

from repro.engine.api import execute
from repro.engine.joins_engine import EddyJoinsEngine, JoinSpec
from repro.errors import ExecutionError, QueryError
from repro.query.parser import parse_query
from repro.query.predicates import selection
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_cyclic_triple, make_source_r, make_source_s, make_source_t
from tests.conftest import oracle_identities
from tests.reference.oracle import base_input, evaluate_query_oracle, merge, satisfies


def make_catalog():
    """R, S and T, each with a scan: any left-deep order of SHJs can run."""
    cat = Catalog()
    cat.add_table(make_source_r(80, 20, seed=1))
    cat.add_table(make_source_s(30))
    cat.add_table(make_source_t(80, seed=2))
    for table in ("R", "S", "T"):
        cat.add_scan(table)
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
    return cat, query, oracle_identities(query, cat)


def shj_plan(order):
    """The left-deep plan joining ``order`` by symmetric hash joins."""
    return [
        JoinSpec(kind="shj", left=tuple(order[:position]), right=alias)
        for position, alias in enumerate(order[1:], start=1)
    ]


def run_in_order(query, catalog, order):
    return sorted(EddyJoinsEngine(query, catalog, plan=shj_plan(order)).run().identities())


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


class TestCompositeHelpers:
    def test_merge_rejects_overlap(self, catalog):
        left = {"R": catalog.table("R").rows[0]}
        with pytest.raises(QueryError):
            merge(left, left)

    def test_merge_leaves_its_inputs_unchanged(self, catalog):
        left = {"R": catalog.table("R").rows[0]}
        right = {"S": catalog.table("S").rows[0]}
        merged = merge(left, right)
        assert set(merged) == {"R", "S"}
        assert set(left) == {"R"} and set(right) == {"S"}

    def test_satisfies_with_no_predicates_is_true(self, catalog):
        assert satisfies({"R": catalog.table("R").rows[0]}, [])

    def test_satisfies_needs_every_predicate(self, catalog):
        row = catalog.table("R").rows[0]
        composite = {"R": row}
        assert satisfies(composite, [selection("R.a", "=", row["a"])])
        assert not satisfies(
            composite,
            [selection("R.a", "=", row["a"]), selection("R.key", ">", row["key"])],
        )


class TestOracle:
    def test_oracle_on_a_hand_counted_join(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x AND S.x < 3")
        expected = sum(
            1 for row in catalog.table("R") for other in catalog.table("S")
            if row["a"] == other["x"] and other["x"] < 3
        )
        results = evaluate_query_oracle(query, catalog)
        assert len(results) == expected > 0
        identities = oracle_identities(query, catalog)
        assert len(set(identities)) == len(identities)


class TestLeftDeepPlans:
    def test_two_way_matches_oracle(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        result = execute(query, catalog, engine="static")
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    def test_three_way_matches_oracle(self, three_way):
        catalog, query, expected = three_way
        assert sorted(execute(query, catalog, engine="static").identities()) == expected
        assert run_in_order(query, catalog, ["T", "S", "R"]) == expected

    def test_selections_and_joins_together(self, catalog):
        query = parse_query(
            "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 10 AND T.key > 5"
        )
        expected = oracle_identities(query, catalog)
        assert expected
        assert sorted(execute(query, catalog, engine="static").identities()) == expected

    def test_cross_product_when_no_predicate(self, catalog):
        query = parse_query("SELECT * FROM S, R")
        assert len(run_in_order(query, catalog, ["S", "R"])) == 30 * 80

    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("RST")])
    def test_every_join_order_matches_oracle(self, three_way, order):
        # Orders starting R, T hold a cross-product step (no R-T predicate).
        catalog, query, expected = three_way
        assert run_in_order(query, catalog, list(order)) == expected

    def test_theta_join_step_matches_oracle(self, catalog):
        query = parse_query("SELECT * FROM S, T WHERE S.x < T.key AND T.key < 10")
        expected = oracle_identities(query, catalog)
        assert expected
        assert sorted(execute(query, catalog, engine="static").identities()) == expected

    def test_self_join_matches_oracle(self, catalog):
        query = parse_query(
            "SELECT * FROM R AS r1, R AS r2 WHERE r1.a = r2.a AND r1.key < r2.key"
        )
        expected = oracle_identities(query, catalog)
        assert expected
        assert sorted(execute(query, catalog, engine="static").identities()) == expected

    def test_a_selection_that_drops_every_row_gives_no_results(self, catalog):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x AND R.a < 0")
        assert execute(query, catalog, engine="static").row_count == 0

    @pytest.mark.parametrize(
        "plan",
        [
            [],
            [JoinSpec(kind="shj", left=("R",), right="S")],
            [JoinSpec("shj", left=("R",), right="S"), JoinSpec("shj", left=("R",), right="T")],
            [JoinSpec("shj", left=("R",), right="S"), JoinSpec("shj", left=("R", "S"), right="S")],
        ],
        ids=["empty", "missing-alias", "not-left-deep", "alias-twice"],
    )
    def test_a_plan_that_is_not_one_chain_over_every_alias_is_refused(self, catalog, plan):
        with pytest.raises(ExecutionError):
            EddyJoinsEngine(THREE_WAY, catalog, plan=plan)

    def test_cyclic_query_closes_the_cycle(self):
        table_a, table_b, table_c = make_cyclic_triple(60, seed=4, match_fraction=0.5)
        catalog = Catalog()
        for table in (table_a, table_b, table_c):
            catalog.add_table(table)
            catalog.add_scan(table.name)
        query = parse_query(
            "SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc AND C.ca = A.ca"
        )
        expected = oracle_identities(query, catalog)
        assert sorted(execute(query, catalog, engine="static").identities()) == expected
        # The cycle-closing predicate must actually filter something.
        no_cycle = parse_query("SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc")
        assert len(oracle_identities(no_cycle, catalog)) > len(expected)
