"""Tests for the PlanLayout compiler: dense alias/predicate bit domains.

Pins the three guarantees the bitmask TupleState rests on:

* bit assignment is **deterministic across runs** — compiling two
  independently parsed copies of the same query text yields identical
  alias and predicate bit positions;
* the precomputed **adjacency masks** join two aliases exactly when a
  predicate references just those two;
* the **frozenset-view properties** on QTuple round-trip the masks, so
  traces and tests read names while the dataflow runs on ints.
"""

from __future__ import annotations

import pytest

from repro.core.tuples import QTuple, singleton_maker
from repro.errors import QueryError
from repro.query.layout import PlanLayout, bit_positions
from repro.query.parser import parse_query
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import singleton_tuple

THREE_WAY_SQL = (
    "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key AND S.y < 10"
)

R_SCHEMA = Schema.of("key:int", "a:int")


def r_row(key=1, a=10):
    return Row("R", R_SCHEMA, (key, a))


class TestBitAssignment:
    def test_alias_bits_follow_from_clause_order(self):
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        assert layout.alias_bits == {"R": 1, "S": 2, "T": 4}
        assert layout.all_alias_mask == 0b111

    def test_assignment_is_deterministic_across_runs(self):
        first = PlanLayout(parse_query(THREE_WAY_SQL))
        second = PlanLayout(parse_query(THREE_WAY_SQL))
        assert first.alias_bits == second.alias_bits
        assert first.predicate_bits == second.predicate_bits
        assert first.adjacency == second.adjacency
        assert first.all_predicate_mask == second.all_predicate_mask

    def test_predicate_bits_are_dense_per_query(self):
        query = parse_query(THREE_WAY_SQL)
        layout = PlanLayout(query)
        # The parser renumbers each query's predicates 1..n, and the done
        # bit of predicate id p is 1 << p.
        assert set(layout.predicate_bits) == {1, 2, 3}
        assert all(layout.predicate_bits[pid] == 1 << pid for pid in (1, 2, 3))

    def test_unknown_alias_raises(self):
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        with pytest.raises(QueryError):
            layout.bit_of("Z")
        assert layout.peek_bit("Z") == 0  # read-side lookups stay permissive


class _ThreeWay(Predicate):
    """A predicate over three aliases at once (no parsed predicate is)."""

    def aliases(self):
        return frozenset({"R", "S", "T"})


class TestAdjacencyMasks:
    #: THREE_WAY_SQL's join graph, as neighbour names.
    NEIGHBOURS = {"R": {"S", "T"}, "S": {"R"}, "T": {"R"}}

    def test_adjacency_joins_the_aliases_of_each_join_predicate(self):
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        for alias, neighbours in self.NEIGHBOURS.items():
            assert layout.adjacency[alias] == layout.mask_of(neighbours)

    def test_a_chain_s_middle_alias_has_both_ends(self):
        layout = PlanLayout(
            parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        )
        assert layout.adjacency == {"R": 0b010, "S": 0b101, "T": 0b010}

    def test_parallel_predicates_are_one_neighbour(self):
        layout = PlanLayout(
            parse_query("SELECT * FROM R, S WHERE R.a = S.x AND R.key = S.y")
        )
        assert layout.adjacency == {"R": 0b10, "S": 0b01}

    def test_only_predicates_over_exactly_two_aliases_make_edges(self):
        # A selection references one alias, the custom predicate three:
        # neither joins anything, so only R.a = S.x is an edge.
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND R.a < 5")
        three_way = _ThreeWay()
        three_way.predicate_id = len(query.predicates) + 1
        query = Query(query.tables, [*query.predicates, three_way])
        assert three_way in query.join_predicates
        layout = PlanLayout(query)
        assert layout.adjacency == {"R": 0b010, "S": 0b001, "T": 0}
        assert layout.adjacent_unspanned(0b001) == ("S",)
        assert layout.adjacent_unspanned(0b100) == ()

    def test_adjacent_unspanned_equals_set_algebra(self):
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        # Every possible span: the bitwise rule must equal the frozenset rule.
        for spanned_mask in range(1, 1 << len(layout.alias_order)):
            spanned = layout.aliases_of_mask(spanned_mask)
            expected = sorted(
                {
                    neighbour
                    for alias in spanned
                    for neighbour in self.NEIGHBOURS[alias]
                }
                - set(spanned)
            )
            assert list(layout.adjacent_unspanned(spanned_mask)) == expected

    def test_adjacent_unspanned_is_memoized(self):
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        first = layout.adjacent_unspanned(0b001)
        assert layout.adjacent_unspanned(0b001) is first


class TestPredicateMasks:
    def test_is_complete_matches_the_set_based_rule(self):
        query = parse_query(THREE_WAY_SQL)
        layout = PlanLayout(query)
        assert layout.is_complete(
            layout.all_alias_mask, layout.all_predicate_mask
        )
        # Missing an alias, or a done bit, is incomplete.
        assert not layout.is_complete(0b011, layout.all_predicate_mask)
        some_predicate = query.predicates[0].predicate_id
        assert not layout.is_complete(
            layout.all_alias_mask,
            layout.all_predicate_mask & ~(1 << some_predicate),
        )
        # Extra done bits (other queries' ids) do not block completeness.
        assert layout.is_complete(
            layout.all_alias_mask, layout.all_predicate_mask | (1 << 60)
        )


class TestFrozensetViews:
    def test_views_round_trip_the_masks(self):
        query = parse_query(THREE_WAY_SQL)
        layout = PlanLayout(query)
        tuple_ = singleton_tuple("R", r_row(), layout=layout)
        assert tuple_.spanned_mask == layout.alias_bits["R"]
        tuple_.mark_built("R", 1.0)
        tuple_.mark_resolved("S")
        tuple_.mark_exhausted("T")
        tuple_.mark_done([query.predicates[0]])
        assert tuple_.built == frozenset({"R"})
        assert tuple_.resolved == frozenset({"S"})
        assert tuple_.exhausted == frozenset({"T"})
        assert tuple_.done == frozenset({query.predicates[0].predicate_id})
        # And the masks encode exactly the views.
        assert layout.mask_of(tuple_.built) == tuple_.built_mask
        assert layout.mask_of(tuple_.resolved) == tuple_.resolved_mask
        assert layout.mask_of(tuple_.exhausted) == tuple_.exhausted_mask

    def test_a_tuple_is_born_on_a_layout(self):
        # There is one alias space, the query's layout: a tuple without one
        # cannot be made, and an alias outside it is refused at birth.
        layout = PlanLayout(parse_query(THREE_WAY_SQL))
        with pytest.raises(TypeError):
            QTuple({"R": r_row()})
        with pytest.raises(TypeError):
            singleton_maker("R", "am:R")
        with pytest.raises(QueryError, match="not part of query"):
            QTuple({"Z": r_row()}, layout=layout)
        with pytest.raises(QueryError, match="not part of query"):
            singleton_maker("Z", "am:Z", layout)
        tuple_ = singleton_tuple("R", r_row(), layout=layout)
        with pytest.raises(QueryError, match="not part of query"):
            tuple_.mark_resolved("Z")
        assert not tuple_.is_resolved("Z") and not tuple_.has_built("Z")
        assert tuple_.extended("S", r_row(), 1.0).layout is layout

    def test_bit_positions_helper(self):
        assert bit_positions(0) == []
        assert bit_positions(0b101001) == [0, 3, 5]


class TestEngineThreading:
    """The layout is one shared object across eddy, checker, and trace."""

    def test_stems_engine_shares_one_layout(self):
        from repro.sim.tracing import TraceLog
        from repro.storage.catalog import Catalog
        from repro.storage.datagen import make_source_r, make_source_t
        from tests.conftest import single_query_engine

        catalog = Catalog()
        catalog.add_table(make_source_r(10, 5, seed=1))
        catalog.add_table(make_source_t(10, seed=2))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        trace = TraceLog()
        engine = single_query_engine(
            "SELECT * FROM R, T WHERE R.key = T.key", catalog, policy="naive",
            trace=trace,
        )
        layout = engine.eddy_of("q0").layout
        assert isinstance(layout, PlanLayout)
        assert engine.eddy_of("q0").layout is layout
        assert engine.eddy_of("q0").resolver.layout is layout
        eddy = engine.eddy_of("q0")
        handed_off = []

        def recording(items, source=None, deliver=eddy.to_eddy_all):
            handed_off.extend(item for item in items if hasattr(item, "layout"))
            deliver(items, source)

        eddy.to_eddy_all = recording
        result = engine.run()["q0"]
        # Every tuple and match run entering the dataflow — every output's
        # origin — runs on the engine's layout, not the fallback.
        assert result.row_count > 0
        assert {type(item).__name__ for item in handed_off} == {"QTuple", "MatchRun"}
        assert all(item.layout is layout for item in handed_off)
