"""Incremental GROUP BY aggregates: unit and differential property tests.

The maintenance contract (see ``repro.core.aggregates``): an
:class:`AggregateModule` reading a SteM's pending delta must hold, at every instant, *byte-for-byte* the state a from-scratch
recomputation over the SteM's surviving rows would produce — under churn,
under every eviction policy, under bootstrap-at-attach, and under hostile
values (NaN, ±inf, -0.0, 2**63, bool-vs-int shadowing, None groups).
"Byte-for-byte" is literal: outputs are compared through the durable
tagged-JSON codec, which distinguishes everything Python equality blurs.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import repro.core.aggregates as aggregates_source
from repro.core.aggregates import (
    AggregateModule,
    AggregateRegistry,
    AggregateState,
    aggregate_signature,
)
from repro.core.stem import (
    CountEviction,
    ReferenceWindowEviction,
    SteM,
    TimeWindowEviction,
)
from repro.errors import ExecutionError, UnknownColumnError
from repro.query.parser import parse_query
from repro.recovery.codec import canonical_json, encode_value
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import recompute_aggregate

R_SCHEMA = Schema.of("key:int", "a:int")

FULL_QUERY = parse_query(
    "SELECT a, count(*), count(key), sum(key), avg(key), min(key), max(key) "
    "FROM R GROUP BY a"
)


def r_row(key, a):
    return Row("R", R_SCHEMA, (key, a))


def make_module(stem, query=FULL_QUERY):
    module = AggregateModule(
        name="aggregate:R",
        stem=stem,
        alias=query.aggregate_alias,
        group_by=query.group_by,
        aggregates=query.aggregates,
        predicates=query.predicates,
    )
    module.attach()
    return module


def encoded(rows):
    """Canonical byte-exact rendering of an aggregate output table."""
    return canonical_json([encode_value(tuple(row)) for row in rows])


def reference(stem, query=FULL_QUERY):
    """The from-scratch oracle over the SteM's surviving rows that pass the
    query's predicates."""
    alias = query.aggregate_alias
    return recompute_aggregate(
        query.group_by,
        query.aggregates,
        (
            row
            for row, _ in stem.state_entries()
            if all(predicate.evaluate({alias: row}) for predicate in query.predicates)
        ),
    )


# -- unit: per-aggregate retraction semantics ---------------------------------


class TestAggregateState:
    def state(self, query=FULL_QUERY):
        return AggregateState(query.group_by, query.aggregates)

    def test_insert_then_full_retract_leaves_nothing(self):
        state = self.state()
        rows = [r_row(k, k % 3) for k in range(9)]
        for row in rows:
            state.insert(row)
        assert state.group_count == 3
        for row in rows:
            state.retract(row)
        assert state.group_count == 0
        assert state.result_rows() == []

    def test_retract_unknown_group_raises(self):
        state = self.state()
        state.insert(r_row(1, 1))
        with pytest.raises(ExecutionError):
            state.retract(r_row(5, 99))

    def test_sum_retraction_is_exact_for_floats(self):
        # (s + x) - x drifts in IEEE arithmetic; the Fraction carry must
        # not.  0.1 + 0.2 - 0.2 != 0.1 as floats, but the exact path
        # restores the original byte pattern.
        query = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
        state = self.state(query)
        first = r_row(0.1, 1)
        second = r_row(0.2, 1)
        state.insert(first)
        state.insert(second)
        state.retract(second)
        ((_, total),) = state.result_rows()
        assert total.hex() == (0.1).hex()

    def test_sum_stays_int_until_a_float_arrives(self):
        query = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
        state = self.state(query)
        state.insert(r_row(2, 1))
        state.insert(r_row(3, 1))
        ((_, total),) = state.result_rows()
        assert type(total) is int and total == 5
        floaty = r_row(0.5, 1)
        state.insert(floaty)
        ((_, total),) = state.result_rows()
        assert type(total) is float and total == 5.5
        state.retract(floaty)
        ((_, total),) = state.result_rows()
        assert type(total) is int and total == 5

    def test_nan_poisons_sum_until_retracted(self):
        query = parse_query("SELECT a, sum(key), avg(key) FROM R GROUP BY a")
        state = self.state(query)
        nan_row = r_row(math.nan, 1)
        state.insert(r_row(4, 1))
        state.insert(nan_row)
        ((_, total, mean),) = state.result_rows()
        assert math.isnan(total) and math.isnan(mean)
        state.retract(nan_row)
        ((_, total, mean),) = state.result_rows()
        assert total == 4 and mean == 4.0

    def test_opposing_infinities_are_nan(self):
        query = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
        state = self.state(query)
        neg = r_row(-math.inf, 1)
        state.insert(r_row(math.inf, 1))
        state.insert(neg)
        ((_, total),) = state.result_rows()
        assert math.isnan(total)
        state.retract(neg)
        ((_, total),) = state.result_rows()
        assert total == math.inf

    def test_count_star_vs_count_column_nulls(self):
        query = parse_query("SELECT a, count(*), count(key) FROM R GROUP BY a")
        state = self.state(query)
        state.insert(r_row(None, 1))
        state.insert(r_row(7, 1))
        assert state.result_rows() == [(1, 2, 1)]

    def test_one_and_true_and_float_one_are_distinct_groups(self):
        # hash(1) == hash(1.0) == hash(True) in Python; a plain dict key
        # would merge three byte-distinct groups.
        query = parse_query("SELECT key, count(*) FROM R GROUP BY key")
        state = AggregateState(query.group_by, query.aggregates)
        for group in (1, 1.0, True):
            state.insert(r_row(group, 0))
        assert state.group_count == 3
        rendered = encoded(state.result_rows())
        assert '["B",true]' in rendered  # the bool group survived as a bool

    def test_all_nans_collapse_to_one_group(self):
        query = parse_query("SELECT key, count(*) FROM R GROUP BY key")
        state = AggregateState(query.group_by, query.aggregates)
        state.insert(r_row(float("nan"), 0))
        state.insert(r_row(math.nan, 1))
        assert state.group_count == 1
        ((group, count),) = state.result_rows()
        assert math.isnan(group) and count == 2

    def test_minmax_retracting_extreme_recomputes_boundedly(self):
        query = parse_query("SELECT a, min(key), max(key) FROM R GROUP BY a")
        state = self.state(query)
        top = r_row(9, 1)
        for row in [r_row(3, 1), r_row(7, 1), top, r_row(7, 1)]:
            state.insert(row)
        assert state.result_rows() == [(1, 3, 9)]
        assert state.minmax_recomputes == 0
        state.retract(top)
        assert state.result_rows() == [(1, 3, 7)]
        # Only the max side lost its cached extreme.
        assert state.minmax_recomputes == 1

    def test_minmax_duplicate_extreme_needs_no_recompute(self):
        query = parse_query("SELECT a, max(key) FROM R GROUP BY a")
        state = self.state(query)
        first, second = r_row(9, 1), r_row(9.0, 1)
        state.insert(first)
        state.insert(r_row(2, 1))
        state.insert(second)
        state.retract(second)  # 9.0 and 9 are distinct keys; 9 remains max
        assert state.result_rows() == [(1, 9)]

    def test_result_rows_order_none_numeric_nan_str(self):
        query = parse_query("SELECT key, count(*) FROM R GROUP BY key")
        state = AggregateState(query.group_by, query.aggregates)
        for group in ("z", 2, None, math.nan, 0.5):
            state.insert(r_row(group, 0))
        groups = [row[0] for row in state.result_rows()]
        assert groups[0] is None
        assert groups[1:3] == [0.5, 2]
        assert math.isnan(groups[3])
        assert groups[4] == "z"

    def test_sum_rejects_non_numeric(self):
        query = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
        state = self.state(query)
        with pytest.raises(ExecutionError):
            state.insert(r_row("text", 1))

    def test_column_positions_follow_the_rows_schema(self):
        # Positions are resolved once per schema: an equal-but-distinct
        # schema (what recovery decodes) reuses them, a different layout
        # of the same columns re-resolves, an unknown column raises on
        # the first row and leaves the state untouched.
        query = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
        state = self.state(query)
        state.insert(r_row(5, 1))
        state.insert(Row("R", Schema.of("key:int", "a:int"), (6, 1)))
        state.insert(Row("R", Schema.of("pad:int", "a:int", "key:int"), (0, 1, 7)))
        state.insert(r_row(8, 1))
        assert state.result_rows() == [(1, 26)]
        for schema in (Schema.of("a:int", "k:int"), Schema.of("key:int", "b:int")):
            with pytest.raises(UnknownColumnError):
                state.insert(Row("R", schema, (1, 1)))
            with pytest.raises(UnknownColumnError):
                state.retract(Row("R", schema, (1, 1)))
        state.retract(r_row(5, 1))
        assert state.result_rows() == [(1, 21)]
        assert (state.inserts, state.retractions) == (4, 1)


# -- unit: the module on a SteM ----------------------------------------------


class TestAggregateModule:
    def test_bootstrap_from_prior_stem_contents(self):
        stem = SteM("R", aliases=("R",), join_columns=())
        for k in range(6):
            stem.build(r_row(k, k % 2), float(k + 1))
        module = make_module(stem)
        assert module.stats["bootstrapped"] == 6
        assert encoded(module.result_rows()) == encoded(
            reference(stem).result_rows()
            if hasattr(reference(stem), "result_rows")
            else reference(stem)
        )

    def test_eviction_retracts(self):
        stem = SteM(
            "R", aliases=("R",), join_columns=(),
            eviction=CountEviction(4),
        )
        module = make_module(stem)
        for k in range(10):
            stem.build(r_row(k, k % 2), float(k + 1))
        assert encoded(module.result_rows()) == encoded(reference(stem))
        # The six rows built and evicted between readouts cancelled before
        # touching the state; only the four survivors were inserted.
        stats = module.stats_snapshot()
        assert (stats["inserted"], stats["retracted"], stats["cancelled"]) == (4, 0, 6)

    def test_duplicate_build_not_double_counted(self):
        stem = SteM("R", aliases=("R",), join_columns=())
        module = make_module(stem)
        row = r_row(1, 1)
        stem.build(row, 1.0)
        stem.build(r_row(1, 1), 2.0)  # equal row: duplicate, absorbed
        assert module.result_rows() == [(1, 1, 1, 1, 1.0, 1, 1)]
        assert module.stats_snapshot()["inserted"] == 1

    def test_predicates_filter_symmetrically(self):
        query = parse_query(
            "SELECT a, count(*) FROM R WHERE R.key < 5 GROUP BY a"
        )
        stem = SteM(
            "R", aliases=("R",), join_columns=(),
            eviction=CountEviction(3),
        )
        module = make_module(stem, query)
        for k in range(10):
            stem.build(r_row(k, 0), float(k + 1))
        # Every surviving row (7, 8, 9) fails the predicate; the evictions
        # of the passing rows must have left nothing behind.
        assert module.result_rows() == []
        assert module.stats["filtered"] > 0

    def test_raising_predicate_excludes_on_both_edges(self):
        query = parse_query(
            "SELECT a, count(*) FROM R WHERE R.key < 5 GROUP BY a"
        )
        stem = SteM(
            "R", aliases=("R",), join_columns=(),
            eviction=CountEviction(2),
        )
        module = make_module(stem, query)
        # "text" < 5 raises TypeError inside the predicate: the row is
        # excluded at build, and its eviction must not try to retract it.
        stem.build(r_row("text", 1), 1.0)
        stem.build(r_row(1, 1), 2.0)
        stem.build(r_row(2, 1), 3.0)
        stem.build(r_row(3, 1), 4.0)  # evicts the raising row
        assert module.result_rows() == [(1, 2)]

    def test_detach_is_idempotent_and_stops_listening(self):
        stem = SteM("R", aliases=("R",), join_columns=())
        module = make_module(stem)
        stem.build(r_row(1, 1), 1.0)
        assert module.detach()
        assert not module.detach()
        stem.build(r_row(2, 2), 2.0)
        assert module.result_rows() == [(1, 1, 1, 1, 1.0, 1, 1)]
        assert module.stats_snapshot()["inserted"] == 1
        assert not module.attached

    def test_reattach_after_detach_starts_fresh(self):
        # Re-attaching used to bootstrap the SteM's contents on top of the
        # stale state, counting every surviving row twice.
        query = parse_query("SELECT a, count(*), sum(key) FROM R GROUP BY a")
        stem = SteM("R", aliases=("R",), join_columns=())
        module = make_module(stem, query)
        rows = [r_row(k, k % 2) for k in range(4)]
        for k, row in enumerate(rows):
            stem.build(row, float(k + 1))
        assert module.result_rows() == [(0, 2, 2), (1, 2, 4)]
        module.detach()
        stem.evict(rows[0])
        module.attach()
        assert module.result_rows() == [(0, 1, 2), (1, 2, 4)]
        assert encoded(module.result_rows()) == encoded(reference(stem, query))
        stem.build(r_row(5, 1), 5.0)
        assert module.result_rows() == [(0, 1, 2), (1, 3, 9)]
        # Stats accumulate across attaches: 4 + 1 inserted, 3 bootstrapped.
        stats = module.stats_snapshot()
        assert (stats["inserted"], stats["bootstrapped"]) == (5, 3)

    def test_pending_delta_pairs_rows_by_identity_not_equality(self):
        # (1, 1) == (True, 1.0) as Rows, but their groups differ byte-wise:
        # the build of one must not cancel the eviction of the other.
        query = parse_query("SELECT a, count(*), sum(key) FROM R GROUP BY a")
        stem = SteM("R", aliases=("R",), join_columns=())
        module = make_module(stem, query)
        resident = r_row(1, 1)
        stem.build(resident, 1.0)
        assert module.result_rows() == [(1, 1, 1)]
        stem.evict(resident)
        stem.build(r_row(True, 1.0), 2.0)
        assert encoded(module.result_rows()) == encoded(reference(stem, query))
        assert repr(module.result_rows()) == repr([(1.0, 1, 1)])
        assert module.stats_snapshot()["cancelled"] == 0


# -- unit: readers sharing one SteM's delta -----------------------------------

STR_SCHEMA = Schema.of("key:str", "a:int")
POISON_QUERY = parse_query("SELECT a, sum(key) FROM R GROUP BY a")
CLEAN_QUERY = parse_query("SELECT a, count(*) FROM R GROUP BY a")


def poisoned_pair():
    """A SteM read by a module summing a text column and a clean one."""
    stem = SteM("R", aliases=("R",), join_columns=(), eviction=CountEviction(3))
    return stem, make_module(stem, POISON_QUERY), make_module(stem, CLEAN_QUERY)


class TestSharedDelta:
    def test_a_state_error_stops_its_reader_and_not_the_others(self):
        # The failed apply leaves a half-applied state (the group exists,
        # its SUM does not): no later readout may return it.
        stem, poisoned, clean = poisoned_pair()
        stem.build(Row("R", STR_SCHEMA, ("x", 1)), 1.0)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="sum/avg needs numeric"):
                poisoned.result_rows()
            assert clean.result_rows() == reference(stem, CLEAN_QUERY) == [(1, 1)]
        for k in range(2, 8):
            stem.build(Row("R", STR_SCHEMA, (f"k{k}", k % 2)), float(k))
            with pytest.raises(ExecutionError, match="sum/avg needs numeric"):
                poisoned.result_rows()
            assert encoded(clean.result_rows()) == encoded(reference(stem, CLEAN_QUERY))
        # The counters still report, so a stopped module can be released.
        assert poisoned.stats_snapshot()["inserted"] == 0
        stats = clean.stats_snapshot()
        assert (stats["inserted"], stats["retracted"]) == (7, 4)

    def test_reattach_clears_the_error(self):
        stem, poisoned, _ = poisoned_pair()
        row = Row("R", STR_SCHEMA, ("x", 1))
        stem.build(row, 1.0)
        with pytest.raises(ExecutionError):
            poisoned.result_rows()
        poisoned.detach()
        stem.evict(row)
        poisoned.attach()
        assert poisoned.result_rows() == []

    def test_a_bootstrap_error_is_kept_for_the_readout(self):
        stem = SteM("R", aliases=("R",), join_columns=())
        stem.build(Row("R", STR_SCHEMA, ("x", 1)), 1.0)
        poisoned = make_module(stem, POISON_QUERY)
        stem.build(Row("R", STR_SCHEMA, ("y", 2)), 2.0)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="sum/avg needs numeric"):
                poisoned.result_rows()

    def test_repr_reads_without_draining(self):
        # A drain would reach every reader of the SteM, and raise here.
        stem, poisoned, clean = poisoned_pair()
        stem.build(Row("R", STR_SCHEMA, ("x", 1)), 1.0)
        assert repr(poisoned) == "AggregateModule(aggregate:R, 0 groups, attached)"
        assert repr(clean) == "AggregateModule(aggregate:R, 0 groups, attached)"
        assert clean.state.inserts == 0 and poisoned.error is None
        clean.detach()
        assert repr(clean) == "AggregateModule(aggregate:R, 1 groups, detached)"

    def test_five_readers_make_no_aggregate_calls_until_a_readout(self):
        # The SteM writes the delta inline; the readers run only when drained.
        stem = SteM("R", aliases=("R",), join_columns=(), eviction=CountEviction(8))
        queries = (
            FULL_QUERY,
            CLEAN_QUERY,
            parse_query("SELECT a, min(key), max(key) FROM R WHERE R.key < 20 GROUP BY a"),
            parse_query("SELECT key, count(*) FROM R WHERE R.a = 1 GROUP BY key"),
            parse_query("SELECT count(*), avg(key) FROM R"),
        )
        modules = [make_module(stem, query) for query in queries]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == aggregates_source.__file__:
                calls.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for k in range(40):
                stem.build(r_row(k, k % 3), float(k + 1))
            for row, _ in stem.state_entries()[::2]:
                stem.evict(row)
        finally:
            sys.setprofile(previous)
        assert stem.stats["evictions"] == 32 + 4
        assert calls == []
        sys.setprofile(profile)
        try:
            modules[0].result_rows()
        finally:
            sys.setprofile(previous)
        # One readout drained the delta into every reader.
        assert calls.count("apply_delta") == 5
        for module, query in zip(modules, queries):
            stats = module.stats
            assert stats["inserted"] + stats["filtered"] == 4
            assert stats["cancelled"] == 36 and stats["retracted"] == 0
            assert encoded(module.result_rows()) == encoded(reference(stem, query))


# -- unit: signatures and the shared registry ---------------------------------


class TestAggregateRegistry:
    def queries(self):
        qa = parse_query("SELECT a, count(*) FROM R GROUP BY a")
        qb = parse_query("SELECT a, count(*) FROM R x GROUP BY a")
        qc = parse_query("SELECT a, count(*), sum(key) FROM R GROUP BY a")
        return qa, qb, qc

    def test_signature_normalizes_alias(self):
        qa, qb, qc = self.queries()
        assert aggregate_signature(qa) == aggregate_signature(qb)
        assert aggregate_signature(qa) != aggregate_signature(qc)

    def test_signature_normalizes_predicate_order_and_ops(self):
        qa = parse_query(
            "SELECT a, count(*) FROM R WHERE R.key < 9 AND R.a = 1 GROUP BY a"
        )
        qb = parse_query(
            "SELECT a, count(*) FROM R z WHERE z.a = 1 AND z.key < 9 GROUP BY a"
        )
        assert aggregate_signature(qa) == aggregate_signature(qb)

    def test_same_signature_shares_one_module(self):
        qa, qb, qc = self.queries()
        stem = SteM("R", aliases=("R", "x"), join_columns=())
        registry = AggregateRegistry()
        module_a = registry.module_for(qa, stem, owner="q1")
        module_b = registry.module_for(qb, stem, owner="q2")
        module_c = registry.module_for(qc, stem, owner="q3")
        assert module_a is module_b
        assert module_a is not module_c
        assert registry.stats == {"created": 2, "shared": 1, "reclaimed": 0}
        # q1 and q2 both own the shared module; q3 alone owns its own.
        assert registry.release("q3") == 1
        assert registry.release("q1") == 0
        assert registry.release("q2") == 1

    def test_release_detaches_at_zero_owners(self):
        qa, qb, _ = self.queries()
        stem = SteM("R", aliases=("R", "x"), join_columns=())
        registry = AggregateRegistry()
        module = registry.module_for(qa, stem, owner="q1")
        registry.module_for(qb, stem, owner="q2")
        stem.build(r_row(1, 1), 1.0)
        assert registry.release("q1") == 0
        assert module.attached
        assert registry.release("q2") == 1
        assert not module.attached
        assert registry.stats["reclaimed"] == 1
        assert registry.modules == {}
        # Releasing an unknown owner is a no-op, not an error.
        assert registry.release("q1") == 0


# -- differential property: incremental == recompute, byte for byte -----------

#: Group values cover the hash-collision set, NaN, None, big ints, mixed
#: types; measure values are numerics (sum/avg legality) on the hostile end.
GROUP_POOL = (
    None, 0, 1, 1.0, True, -0.0, math.nan, 2**63, -7, "g", "h", (1, "t"),
)
VALUE_POOL = (
    None, 0, 1, -1, True, 0.5, -0.0, 5e-324, 1e308, math.nan,
    math.inf, -math.inf, 2**63, -(2**63), 0.1,
)

POLICIES = {
    "none": lambda: None,
    "count": lambda: CountEviction(5),
    "time-window": lambda: TimeWindowEviction(7.0),
    "reference-window": lambda: ReferenceWindowEviction(4),
}

steps = st.lists(
    st.tuples(
        st.integers(0, len(GROUP_POOL) - 1),
        st.integers(0, len(VALUE_POOL) - 1),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    steps=steps,
    policy=st.sampled_from(sorted(POLICIES)),
    attach_fraction=st.floats(0.0, 1.0),
)
def test_incremental_equals_recompute_under_churn(
    steps, policy, attach_fraction
):
    """The differential oracle: at *every* post-attach step, the module's
    output is byte-identical to recomputing over the surviving window —
    across eviction policies, hostile values, and bootstrap points."""
    stem = SteM(
        "R", aliases=("R",), join_columns=(),
        eviction=POLICIES[policy](),
    )
    attach_at = int(len(steps) * attach_fraction)
    module = None
    for position, (g, v) in enumerate(steps):
        if position == attach_at:
            module = make_module(stem)
        stem.build(r_row(VALUE_POOL[v], GROUP_POOL[g]), float(position + 1))
        if module is not None:
            assert encoded(module.result_rows()) == encoded(reference(stem))
    if module is None:
        module = make_module(stem)
    assert encoded(module.result_rows()) == encoded(reference(stem))
    # Explicit evictions (reference-eviction style) retract too.
    for row, _ in list(stem.state_entries())[::2]:
        stem.evict(row)
        assert encoded(module.result_rows()) == encoded(reference(stem))
    module.detach()


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, len(GROUP_POOL) - 1),
            st.integers(0, len(VALUE_POOL) - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=60,
    ),
    policy=st.sampled_from(sorted(POLICIES)),
    attach_fraction=st.floats(0.0, 1.0),
    evict_reads=st.lists(st.booleans(), max_size=30),
)
def test_consolidated_deltas_equal_recompute_at_sparse_reads(
    steps, policy, attach_fraction, evict_reads
):
    """Reads only at drawn steps, so builds and evictions pile up (and
    cancel) between reads: each read still equals the recompute over the
    surviving window byte for byte, and the stats balance — every
    announcement since attach reached the state or cancelled."""
    stem = SteM(
        "R", aliases=("R",), join_columns=(),
        eviction=POLICIES[policy](),
    )
    attach_at = int(len(steps) * attach_fraction)
    module = None

    def announced():
        """Stored builds and evictions so far: the delta's writes."""
        stats = stem.stats
        return stats["builds"] - stats["duplicates"], stats["evictions"]

    def read():
        assert encoded(module.result_rows()) == encoded(reference(stem))
        stats = module.stats_snapshot()
        assert module.state.inserts == stats["inserted"] + stats["bootstrapped"]
        assert module.state.retractions == stats["retracted"]
        builds, evictions = (now - then for now, then in zip(announced(), before))
        assert builds == stats["inserted"] + stats["cancelled"]
        assert evictions == stats["retracted"] + stats["cancelled"]

    for position, (g, v, read_here) in enumerate(steps):
        if position == attach_at:
            module, before = make_module(stem), announced()
        stem.build(r_row(VALUE_POOL[v], GROUP_POOL[g]), float(position + 1))
        if module is not None and read_here:
            read()
    if module is None:
        module, before = make_module(stem), announced()
    entries = list(stem.state_entries())
    for (row, _), read_here in zip(entries, evict_reads):
        stem.evict(row)
        if read_here:
            read()
    read()
    module.detach()


def test_full_drain_cancels_everything_built_since_the_last_read():
    stem = SteM("R", aliases=("R",), join_columns=())
    module = make_module(stem)
    for k in range(6):
        stem.build(r_row(k, k % 2), float(k + 1))
    assert module.result_rows() == reference(stem)
    for k in range(6, 10):
        stem.build(r_row(k, k % 2), float(k + 1))
    for row, _ in stem.state_entries():
        stem.evict(row)
    assert module.result_rows() == []
    stats = module.stats_snapshot()
    assert (stats["inserted"], stats["retracted"], stats["cancelled"]) == (6, 6, 4)
    assert stats["groups"] == 0


@settings(max_examples=25, deadline=None)
@given(steps=steps)
def test_full_drain_returns_to_empty(steps):
    """Evicting everything retracts everything: no residue, no desync."""
    stem = SteM("R", aliases=("R",), join_columns=())
    module = make_module(stem)
    for position, (g, v) in enumerate(steps):
        stem.build(r_row(VALUE_POOL[v], GROUP_POOL[g]), float(position + 1))
    for row, _ in list(stem.state_entries()):
        stem.evict(row)
    assert module.result_rows() == []
    assert module.stats["inserted"] == module.stats["retracted"]
    module.detach()


#: The readers the state machine attaches, in order: different group-bys
#: and predicates over the one SteM.
MACHINE_QUERIES = (
    parse_query("SELECT a, count(*), sum(key) FROM R GROUP BY a"),
    parse_query("SELECT key, count(*), min(a), max(a) FROM R WHERE R.a < 3 GROUP BY key"),
    parse_query("SELECT count(*), avg(key), max(a) FROM R WHERE R.key > 1"),
)


class SharedDeltaMachine(RuleBasedStateMachine):
    """One to three readers on one count-bounded SteM, attached, detached
    and re-attached between builds and direct evictions.  After every
    readout each attached reader equals the recompute over the SteM's rows,
    and a detached one still reads what it held when it left."""

    def __init__(self):
        super().__init__()
        self.stem = SteM("R", aliases=("R",), join_columns=(), eviction=CountEviction(4))
        self.readers: list[tuple[AggregateModule, object]] = []
        self.left: dict[int, list[tuple]] = {}  # detached reader -> its rows
        self.clock = 0

    @initialize()
    def first_reader(self):
        self.attach_new()

    @precondition(lambda self: len(self.readers) < len(MACHINE_QUERIES))
    @rule()
    def attach_new(self):
        query = MACHINE_QUERIES[len(self.readers)]
        self.readers.append((make_module(self.stem, query), query))

    @rule(key=st.integers(0, 4), a=st.integers(0, 4))
    def build(self, key, a):
        self.clock += 1
        self.stem.build(r_row(key, a), float(self.clock))

    @precondition(lambda self: len(self.stem) > 0)
    @rule(data=st.data())
    def evict(self, data):
        rows = [row for row, _ in self.stem.state_entries()]
        assert self.stem.evict(data.draw(st.sampled_from(rows)))

    @rule(data=st.data())
    def detach(self, data):
        module, query = data.draw(st.sampled_from(self.readers))
        if module.detach():
            # The pending delta reached the leaving reader.
            self.left[id(module)] = module.result_rows()
            assert encoded(self.left[id(module)]) == encoded(reference(self.stem, query))

    @rule(data=st.data())
    def reattach(self, data):
        module, _ = data.draw(st.sampled_from(self.readers))
        module.attach()
        self.left.pop(id(module), None)

    @rule(data=st.data())
    def readout(self, data):
        module, _ = data.draw(st.sampled_from(self.readers))
        module.result_rows()
        for module, query in self.readers:
            if module.attached:
                assert encoded(module.result_rows()) == encoded(reference(self.stem, query))
            else:
                assert module.result_rows() == self.left[id(module)]


SharedDeltaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestSharedDeltaMachine = SharedDeltaMachine.TestCase


# -- independent oracle: SUM / AVG / COUNT against exact rationals ------------

#: Measure values for the oracle: ints far past 2**63, bools, floats at both
#: ends of the double range, signed zero, the non-finite values, and NULL.
ORACLE_VALUES = (
    None, 0, 1, -1, 7, True, False, 2**70, -(2**70), 2**70 + 1,
    0.5, 0.1, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
    math.nan, math.inf, -math.inf,
)

SUM_QUERY = parse_query("SELECT a, sum(key), avg(key), count(key) FROM R GROUP BY a")


def sum_avg_count_oracle(values):
    """SUM, AVG and COUNT of a multiset, from first principles.

    Written here, sharing nothing with ``_SumState`` (the differential suite
    above compares incremental against recompute *through the same state
    class*, so a readout error common to both is invisible to it): the
    exact rational sum of the finite values, projected onto IEEE semantics —
    any NaN gives NaN, opposing infinities give NaN, a one-sided infinity
    wins, the result is an int iff no float took part, nothing non-null
    gives NULL.  A finite total outside the double range rounds to ±inf
    (IEEE round-to-nearest overflow).
    """
    from fractions import Fraction

    def to_double(total):
        try:
            return float(total)
        except OverflowError:  # beyond the largest double
            return math.inf if total > 0 else -math.inf

    present = [value for value in values if value is not None]
    if not present:
        return None, None, 0
    floats = [value for value in present if type(value) is float]
    special = None
    if any(math.isnan(value) for value in floats):
        special = math.nan
    elif math.inf in floats and -math.inf in floats:
        special = math.nan
    elif math.inf in floats:
        special = math.inf
    elif -math.inf in floats:
        special = -math.inf
    if special is not None:
        return special, special, len(present)
    total = sum((Fraction(value) for value in present), Fraction(0))
    return (
        to_double(total) if floats else int(total),
        to_double(total / len(present)),
        len(present),
    )


def test_totals_beyond_the_double_range_read_as_infinity():
    """A finite SUM/AVG whose exact total no double can hold reads ±inf; it
    used to raise ``OverflowError`` out of ``result_rows()``, taking every
    other group's readout with it.  Ints stay exact while no float took
    part, and retraction brings the finite readout back."""
    state = AggregateState(SUM_QUERY.group_by, SUM_QUERY.aggregates)
    for key in (1.7e308, 1.7e308):
        state.insert(r_row(key, 0))
    for key in (-1.7e308, -1.7e308, -1.7e308):
        state.insert(r_row(key, 1))
    for key in (10**400, 10**400):
        state.insert(r_row(key, 2))
    assert repr(state.result_rows()) == repr([
        (0, math.inf, 1.7e308, 2),
        (1, -math.inf, -1.7e308, 3),
        (2, 2 * 10**400, math.inf, 2),  # exact int SUM; AVG is a double
    ])
    state.insert(r_row(0.5, 2))  # a float took part: SUM is a double too
    assert state.result_rows()[2] == (2, math.inf, math.inf, 3)
    state.retract(r_row(1.7e308, 0))
    assert state.result_rows()[0] == (0, 1.7e308, 1.7e308, 1)
    for group in (0, 1, 2):
        values = {0: [1.7e308], 1: [-1.7e308] * 3, 2: [10**400, 10**400, 0.5]}[group]
        assert repr(state.result_rows()[group][1:]) == repr(
            sum_avg_count_oracle(values)
        )


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, len(ORACLE_VALUES) - 1),
            st.integers(0, 2),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_sum_avg_count_match_the_rational_oracle(operations):
    """Random insert/retract interleavings: after every operation each
    group's SUM, AVG and COUNT equal the oracle's, down to the repr — and
    retracting everything that is left returns the state to empty."""
    state = AggregateState(SUM_QUERY.group_by, SUM_QUERY.aggregates)
    surviving: dict[int, list] = {0: [], 1: [], 2: []}

    def check():
        expected = [
            (group, *sum_avg_count_oracle(surviving[group]))
            for group in sorted(surviving)
            if surviving[group]
        ]
        assert repr(state.result_rows()) == repr(expected)

    for retract, value_index, group, pick in operations:
        held = surviving[group]
        if retract and held:
            value = held.pop(pick % len(held))
            state.retract(r_row(value, group))
        else:
            value = ORACLE_VALUES[value_index]
            held.append(value)
            state.insert(r_row(value, group))
        check()
    for group, held in surviving.items():
        while held:
            state.retract(r_row(held.pop(), group))
            check()
    assert state.result_rows() == [] and state.group_count == 0
    with pytest.raises(ExecutionError):
        state.insert(r_row("text", 0))
