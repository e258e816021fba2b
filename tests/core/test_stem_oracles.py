"""A single SteM against oracles that share no code with it.

Every base table's state is one :class:`~repro.core.stem.SteM`, so the
properties the engines lean on are pinned here against independent
references: a nested-loop join over the rows stored so far, the interpreted
probe oracle (``tests/reference/interpreted_probe.py``) against the
compiled path, one-at-a-time probes against
:meth:`~repro.core.stem.SteM.probe_batch`, and a plain list model of each
eviction window.  Hostile values (NULLs, NaN, ±inf, integers past the
exact-float range, mixed-type columns) and operation sequences are checked
three ways: compiled ≡ interpreted ≡ the reference, on an indexed and an
unindexed (scan) layout, which take different candidate-selection branches.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stem import (
    CountEviction,
    ReferenceWindowEviction,
    SteM,
    TimeWindowEviction,
    make_eviction_policy,
)
from repro.core.tuples import EOTTuple, QTuple
from repro.errors import ExecutionError
from repro.query.predicates import Comparison, InList, TruePredicate, selection
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.reference.interpreted_probe import interpreted_probe
from tests.helpers import equi_join, layout_over, singleton_tuple

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")

JOIN = equi_join("R.a", "S.x")
#: The alias space every probe tuple here is born on.
TUPLES = layout_over("R", "S", "S2", "r1", "r2")


def r_row(key, a):
    return Row("R", R_SCHEMA, (key, a))


def s_row(x, y=None):
    return Row("S", S_SCHEMA, (x, x if y is None else y))


def r_probe(key, a, timestamp=None):
    probe = singleton_tuple("R", r_row(key, a), layout=TUPLES)
    if timestamp is not None:
        probe.mark_built("R", timestamp)
    return probe


def outcome_key(outcome):
    """Everything a probe outcome exposes to the engine, as comparable data."""
    return (
        [result.identity() for result in outcome.results],
        outcome.suppressed_by_timestamp,
        outcome.all_matches_known,
    )


def matched_rows(outcome):
    return [result.components["S"] for result in outcome.results]


def compiled_probe(stem, probe, predicates=(JOIN,)):
    plan = ProbePlan.compile(
        list(predicates), "S", probe.components, target_schema=stem.row_schema
    )
    return stem.probe_with_plan(probe, plan)


def nested_loop(entries, key, probe_timestamp):
    """The reference answer: stored rows with ``x == key`` in build order,
    split by the TimeStamp constraint into results and suppressed matches."""
    results, suppressed = [], 0
    for row, timestamp in entries:
        if row["x"] != key:
            continue
        if probe_timestamp > timestamp:
            results.append(row)
        else:
            suppressed += 1
    return results, suppressed


#: Build/evict sequences: ("build", x, y) or ("evict", position).
stem_histories = st.lists(
    st.one_of(
        st.tuples(st.just("build"), st.integers(0, 6), st.integers(0, 4)),
        st.tuples(st.just("build"), st.integers(0, 6), st.integers(0, 4)),
        st.tuples(st.just("evict"), st.integers(0, 50)),
    ),
    max_size=50,
)


def replay(stem, history):
    """Apply a drawn history; returns the reference model of the row store."""
    entries: list[tuple[Row, float]] = []
    for position, operation in enumerate(history):
        if operation[0] == "build":
            row = s_row(operation[1], operation[2])
            outcome = stem.build(row, float(position + 1))
            if not outcome.duplicate:
                entries.append((row, float(position + 1)))
        elif entries:
            row, _ = entries.pop(operation[1] % len(entries))
            assert stem.evict(row)
    return entries


class TestProbeAgainstNestedLoop:
    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "scan"])
    @settings(max_examples=40, deadline=None)
    @given(history=stem_histories, key=st.integers(0, 6),
           probe_timestamp=st.integers(0, 60))
    def test_compiled_probe_matches_nested_loop(
        self, indexed, history, key, probe_timestamp
    ):
        stem = SteM("S", aliases=("S",), join_columns=("x",) if indexed else ())
        entries = replay(stem, history)
        outcome = compiled_probe(stem, r_probe(0, key, float(probe_timestamp)))
        results, suppressed = nested_loop(entries, key, probe_timestamp)
        assert matched_rows(outcome) == results
        assert outcome.suppressed_by_timestamp == suppressed
        assert list(stem.state_entries()) == entries

    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "scan"])
    @settings(max_examples=40, deadline=None)
    @given(history=stem_histories, key=st.integers(0, 6),
           probe_timestamp=st.integers(0, 60))
    def test_interpreted_probe_matches_nested_loop(
        self, indexed, history, key, probe_timestamp
    ):
        stem = SteM("S", aliases=("S",), join_columns=("x",) if indexed else ())
        entries = replay(stem, history)
        outcome = interpreted_probe(stem, r_probe(0, key, float(probe_timestamp)), "S",
                                    [JOIN])
        results, suppressed = nested_loop(entries, key, probe_timestamp)
        assert matched_rows(outcome) == results
        assert outcome.suppressed_by_timestamp == suppressed

    def test_compiled_and_interpreted_probes_agree(self):
        interpreted = SteM("S", aliases=("S",), join_columns=("x",))
        compiled = SteM("S", aliases=("S",), join_columns=("x",))
        probes = {
            key: (r_probe(0, key, 1000.0), r_probe(0, key, 1000.0))
            for key in range(13)
        }
        for round_start in (0, 60):
            for ts in range(round_start, round_start + 60):
                for stem in (interpreted, compiled):
                    stem.build(s_row(ts % 13, ts % 7), float(ts))
            for key, (left, right) in probes.items():
                a = interpreted_probe(interpreted, left, "S", [JOIN])
                b = compiled_probe(compiled, right)
                assert outcome_key(a) == outcome_key(b)
                assert a.candidates_examined == b.candidates_examined

    def test_probe_batch_equals_probes_one_at_a_time(self):
        one, batched = (
            SteM("S", aliases=("S",), join_columns=("x",)) for _ in range(2)
        )
        for ts in range(80):
            one.build(s_row(ts % 17, ts % 5), float(ts))
            batched.build(s_row(ts % 17, ts % 5), float(ts))
        probes = [r_probe(i, i % 19, 40.0 + i) for i in range(24)]
        plan = ProbePlan.compile([JOIN], "S", probes[0].components,
                                 target_schema=batched.row_schema)
        expected = [
            outcome_key(compiled_probe(one, r_probe(i, i % 19, 40.0 + i)))
            for i in range(24)
        ]
        got = [outcome_key(o) for o in batched.probe_batch(probes, plan)]
        assert got == expected
        assert any(key[0] for key in got) and any(key[1] for key in got)

    def test_equal_values_of_other_numeric_types_match(self):
        # 1 == 1.0 == True: a row built under one representation must answer
        # a probe bound under another, through the index.
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for ts, x in enumerate([0, 1, 2, 1, 3]):
            stem.build(s_row(x, ts), float(ts))
        for value in (1, 1.0, True):
            outcome = compiled_probe(stem, r_probe(0, value, 100.0))
            assert [row["y"] for row in matched_rows(outcome)] == [1, 3]
            interpreted = interpreted_probe(stem, r_probe(0, value, 100.0), "S", [JOIN])
            assert outcome_key(interpreted) == outcome_key(outcome)

    def test_compiled_probe_rejects_an_alias_it_does_not_serve(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        stem.build(s_row(1), 1.0)
        probe = r_probe(0, 1, 10.0)
        plan = ProbePlan.compile([equi_join("R.a", "S2.x")], "S2",
                                 probe.components, target_schema=stem.row_schema)
        with pytest.raises(ExecutionError, match="not served"):
            stem.probe_with_plan(probe, plan)


class TestCountWindow:
    @pytest.mark.parametrize("max_size", [1, 7, 10, 16])
    def test_keeps_exactly_the_newest_rows(self, max_size):
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction="count", max_size=max_size)
        built: list[Row] = []
        for ts in range(50):
            row = s_row(ts % 5, ts)
            stem.build(row, float(ts))
            built.append(row)
            window = built[-max_size:]
            assert list(stem) == window
            assert stem.stats["evictions"] == len(built) - len(window)
            assert stem.timestamp_of(window[0]) == float(ts - len(window) + 1)
            outcome = compiled_probe(stem, r_probe(0, ts % 5, 100.0))
            assert matched_rows(outcome) == [
                row for row in window if row["x"] == ts % 5
            ]

    def test_duplicates_do_not_slide_the_window(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=3)
        for ts, x in enumerate([1, 2, 3]):
            stem.build(s_row(x), float(ts))
        outcome = stem.build(s_row(1), 9.0)
        assert outcome.duplicate and outcome.timestamp == 0.0
        assert [row["x"] for row in stem] == [1, 2, 3]
        assert stem.stats["evictions"] == 0
        stem.build(s_row(4), 10.0)
        assert [row["x"] for row in stem] == [2, 3, 4]

    @settings(max_examples=40, deadline=None)
    @given(history=stem_histories, max_size=st.integers(1, 8))
    def test_window_model_with_explicit_evictions(self, history, max_size):
        # Explicit evictions free room: the window refills before it slides.
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction=CountEviction(max_size))
        model: list[Row] = []
        for position, operation in enumerate(history):
            if operation[0] == "build":
                row = s_row(operation[1], operation[2])
                if not stem.build(row, float(position + 1)).duplicate:
                    model.append(row)
                    del model[:-max_size]
            elif model:
                assert stem.evict(model.pop(operation[1] % len(model)))
            assert list(stem) == model

    def test_set_eviction_bounds_a_live_stem(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for x in range(20):
            stem.build(s_row(x), float(x))
        stem.set_eviction(CountEviction(10))
        assert len(stem) == 20  # the bound applies from the next build on
        stem.build(s_row(20), 20.0)
        assert [row["x"] for row in stem] == list(range(11, 21))
        stem.set_eviction(None)
        for x in range(21, 30):
            stem.build(s_row(x), float(x))
        assert len(stem) == 19


class TestTimeWindow:
    @pytest.mark.parametrize("window", [1, 10, 25])
    def test_survivors_are_the_rows_inside_the_window(self, window):
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction=make_eviction_policy("time-window", window=window))
        for ts in range(1, 51):
            stem.build(s_row(ts % 4, ts), float(ts))
            survivors = [row["y"] for row in stem]
            assert survivors == [y for y in range(1, ts + 1) if y > ts - window]
            assert len(stem) <= window
            assert min(map(stem.timestamp_of, stem)) == float(survivors[0])
            assert max(map(stem.timestamp_of, stem)) == float(ts)

    @settings(max_examples=40, deadline=None)
    @given(history=stem_histories, window=st.integers(1, 12))
    def test_window_model_with_explicit_evictions(self, history, window):
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction=TimeWindowEviction(window))
        model: list[tuple[Row, float]] = []
        for position, operation in enumerate(history):
            now = float(position + 1)
            if operation[0] == "build":
                row = s_row(operation[1], operation[2])
                if not stem.build(row, now).duplicate:
                    model.append((row, now))
                    model = [(r, ts) for r, ts in model if ts > now - window]
            elif model:
                assert stem.evict(model.pop(operation[1] % len(model))[0])
            assert stem.state_entries() == model

    def test_window_evictions_reach_the_listeners(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction=TimeWindowEviction(3))
        evicted = []
        stem.add_evict_listener(evicted.append)
        for ts in range(1, 7):
            stem.build(s_row(ts), float(ts))
        assert [row["x"] for row in evicted] == [1, 2, 3]
        assert stem.stats["evictions"] == 3


class TestReferenceWindow:
    def test_recently_matched_rows_outlive_the_fifo_order(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",),
                    eviction="reference-window", max_size=4)
        for x in range(4):
            stem.build(s_row(x), float(x))
        # Matching the two oldest rows makes them the most recently used.
        for key in (0, 1):
            assert len(stem.probe(r_probe(0, key, 10.0), "S", [JOIN]).results) == 1
        stem.build(s_row(4), 4.0)
        stem.build(s_row(5), 5.0)
        assert [row["x"] for row in stem] == [0, 1, 4, 5]
        assert stem.stats["evictions"] == 2
        assert min(map(stem.timestamp_of, stem)) == 0.0
        assert max(map(stem.timestamp_of, stem)) == 5.0


class TestEvictionSpecs:
    def test_specs_resolve_to_policies(self):
        assert make_eviction_policy(None) is None
        count = make_eviction_policy(None, max_size=8)
        assert isinstance(count, CountEviction) and count.max_size == 8
        assert isinstance(make_eviction_policy("count", max_size=3), CountEviction)
        assert make_eviction_policy("time-window", window=5).window == 5
        lru = make_eviction_policy("reference-window", max_size=4)
        assert isinstance(lru, ReferenceWindowEviction) and lru.tracks_references
        assert make_eviction_policy(lru) is lru

    @pytest.mark.parametrize(
        "kind, max_size, window",
        [
            ("count", None, None),
            ("count", 0, None),
            ("time-window", None, None),
            ("time-window", None, 0.5),
            ("reference-window", None, None),
            ("lru", 8, None),
            # A bound the policy does not read is an error, not a no-op.
            (None, None, 5.0),
            ("count", 3, 5.0),
            ("time-window", 3, 5.0),
            ("reference-window", 3, 5.0),
        ],
    )
    def test_incomplete_or_unknown_specs_are_rejected(self, kind, max_size, window):
        with pytest.raises(ExecutionError, match="eviction"):
            make_eviction_policy(kind, max_size=max_size, window=window)


class TestSteMState:
    def test_iteration_and_entries_follow_build_order(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for ts, x in enumerate([9, 3, 7, 1, 12, 5]):
            stem.build(s_row(x), float(ts))
        stem.evict(s_row(7))
        assert [row["x"] for row in stem] == [9, 3, 1, 12, 5]
        timestamps = [timestamp for _, timestamp in stem.state_entries()]
        assert timestamps == sorted(timestamps) == [0.0, 1.0, 3.0, 4.0, 5.0]
        assert [stem.timestamp_of(row) for row in stem] == timestamps
        assert s_row(7) not in stem and s_row(9) in stem

    def test_build_batch_equals_single_builds(self):
        rows = [s_row(x % 4, x) for x in range(12)] + [s_row(0, 0)]
        timestamps = [float(t) for t in range(13)]
        single = SteM("S", aliases=("S",), join_columns=("x",))
        batched = SteM("S", aliases=("S",), join_columns=("x",))
        expected = [single.build(row, ts) for row, ts in zip(rows, timestamps)]
        assert batched.build_batch(rows, timestamps) == expected
        assert expected[-1].duplicate
        assert batched.state_entries() == single.state_entries()
        assert batched.stats == single.stats

    def test_scan_coverage_survives_builds_but_not_evictions(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for x in range(8):
            stem.build(s_row(x), float(x))
        stem.build_eot(EOTTuple(table="S", alias="S", am_name="scan"))
        stem.build(s_row(8), 8.0)
        assert stem.scan_complete and stem.covers({"x": 3})
        assert compiled_probe(stem, r_probe(0, 3, 20.0)).all_matches_known
        stem.evict(s_row(3))
        assert not stem.scan_complete and not stem.covers({"x": 3})
        assert not compiled_probe(stem, r_probe(0, 4, 20.0)).all_matches_known

    def test_index_eot_covers_only_its_keys_until_an_eviction(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for x in (2, 5):
            stem.build(s_row(x), float(x))
            stem.build_eot(EOTTuple(table="S", alias="S", am_name="idx",
                                    bound_columns=("x",), bound_values=(x,)))
        assert stem.covers({"x": 2}) and stem.covers({"x": 5})
        assert not stem.covers({"x": 3}) and not stem.covers(None)
        assert stem.coverage_state() == (set(), {("x",): {(2,), (5,)}})
        stem.evict(s_row(5))
        assert not stem.covers({"x": 2})

    def test_listeners_fire_until_removed(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=4)
        evicted, built = [], []
        stem.add_evict_listener(evicted.append)

        def on_build(row, timestamp, duplicate):
            built.append((row["x"], timestamp, duplicate))

        stem.add_build_listener(on_build)
        for x in range(6):
            stem.build(s_row(x), float(x))
        stem.build(s_row(5), 9.0)
        assert stem.evict(s_row(3))
        assert [row["x"] for row in evicted] == [0, 1, 3]
        assert built[-1] == (5, 5.0, True)
        assert stem.remove_evict_listener(evicted.append)
        assert not stem.remove_evict_listener(evicted.append)
        stem.build(s_row(6), 10.0)
        assert len(evicted) == 3 and len(built) == 8

    def test_readers_share_one_consolidated_delta(self):
        class Reader:
            def __init__(self):
                self.deltas = []

            def apply_delta(self, built, evicted, cancelled):
                self.deltas.append(
                    ([row["x"] for row in built], [row["x"] for row in evicted], cancelled)
                )

        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=2)
        stem.build(s_row(0), 0.0)  # no reader yet: nothing is recorded
        first, second = Reader(), Reader()
        stem.add_reader(first)
        for x in range(1, 5):
            stem.build(s_row(x), float(x))  # evicts 0, 1 (cancels), 2 (cancels)
        stem.build(s_row(4), 9.0)  # a duplicate is not a change
        stem.add_reader(second)  # drains into the first reader only
        assert first.deltas == [([3, 4], [0], 2)] and second.deltas == []
        assert stem.evict(s_row(3))
        stem.drain()
        stem.drain()  # an empty delta reaches nobody
        assert first.deltas[1:] == second.deltas == [([], [3], 0)]
        stem.remove_reader(first)
        stem.build(s_row(5), 10.0)
        stem.remove_reader(second)  # drains into the leaving reader
        assert second.deltas[-1] == ([5], [], 0) and len(first.deltas) == 2
        stem.build(s_row(6), 11.0)
        assert not stem._delta_in and not stem._delta_out

    def test_stats_count_every_build_probe_and_match(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=20)
        for ts in range(30):
            stem.build(s_row(ts % 9), float(ts))
        matches = 0
        for key in range(10):
            matches += len(stem.probe(r_probe(0, key, 50.0), "S", [JOIN]).results)
            matches += len(compiled_probe(stem, r_probe(1, key, 50.0)).results)
        stats = stem.stats
        assert stats["builds"] == 30
        assert stats["duplicates"] == 21  # only nine distinct rows exist
        assert stats["evictions"] == 0
        assert stats["probes"] == 20
        assert stats["matches"] == matches == 18

    def test_added_alias_is_probeable_until_removed(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        stem.build(s_row(1, 4), 0.0)
        stem.add_alias("S2")
        stem.add_alias("S2")
        assert stem.aliases == ("S", "S2")
        probe = r_probe(0, 1, 10.0)
        outcome = stem.probe(probe, "S2", [equi_join("R.a", "S2.x")])
        assert [result.components["S2"] for result in outcome.results] == [s_row(1, 4)]
        stem.remove_alias("S2")
        with pytest.raises(ExecutionError, match="not served"):
            stem.probe(r_probe(0, 1, 10.0), "S2", [equi_join("R.a", "S2.x")])

    def test_join_column_backfill_and_drop(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",))
        for ts in range(33):  # 11 and 3 are coprime: 33 distinct rows
            stem.build(s_row(ts % 11, ts % 3), float(ts))
        unindexed = equi_join("R.a", "S.y")
        before = stem.probe(r_probe(0, 2, 100.0), "S", [unindexed])
        assert before.candidates_examined == 33
        epoch = stem.index_epoch
        stem.ensure_join_columns(["y"])
        after = stem.probe(r_probe(0, 2, 100.0), "S", [unindexed])
        assert outcome_key(after) == outcome_key(before)
        assert after.candidates_examined == len(after.results) == 11
        assert stem.index_epoch == epoch + 1 and stem.join_columns == ("x", "y")
        assert stem.drop_join_column("y")
        assert not stem.drop_join_column("y")
        assert stem.index_epoch == epoch + 2 and stem.join_columns == ("x",)
        assert stem.probe(r_probe(0, 2, 100.0), "S", [unindexed]).candidates_examined == 33


# -- hostile inputs: compiled ≡ interpreted ≡ the nested-loop reference ----------

R3_SCHEMA = Schema.of("key:int", "a:int", "b:int")

#: SteM layouts: an index on the join column, or none (every probe scans).
LAYOUTS = {"indexed": ("x",), "scan": ()}


def r3_row(key, a, b=0):
    return Row("R", R3_SCHEMA, (key, a, b))


def holds(op, left, right):
    """The reference comparison: NULL operands and type errors are false."""
    if left is None or right is None:
        return False
    try:
        return bool(op(left, right))
    except TypeError:
        return False


def check(op, left, right):
    """A reference check over ``(probe R row, stored S row)``.  ``left`` and
    ``right`` name ``"R.col"``/``"S.col"``, or are literals."""

    def side(spec, r, s):
        if isinstance(spec, str) and spec[:2] in ("R.", "S."):
            return (r if spec[0] == "R" else s)[spec[2:]]
        return spec

    return lambda r, s: holds(op, side(left, r, s), side(right, r, s))


#: Probe-situation predicates, each beside its reference check.
HOSTILE_POOL = [
    (equi_join("R.a", "S.x"), check(operator.eq, "R.a", "S.x")),
    (equi_join("R.b", "S.y"), check(operator.eq, "R.b", "S.y")),
    (Comparison("R.b", "<", "S.y"), check(operator.lt, "R.b", "S.y")),
    (Comparison("S.y", ">=", "R.a"), check(operator.ge, "S.y", "R.a")),
    (Comparison("S.x", "<", "S.y"), check(operator.lt, "S.x", "S.y")),
    (selection("S.y", "<", 4), check(operator.lt, "S.y", 4)),
    (selection("S.x", "!=", 2), check(operator.ne, "S.x", 2)),
    (Comparison("S.x", "=", 1), check(operator.eq, "S.x", 1)),
    (InList("S.y", [0, 1, 2, None]), lambda r, s: s["y"] in {0, 1, 2, None}),
    (InList("S.x", [2**53 + 1, 3.0, 1, "a"]),
     lambda r, s: s["x"] in {2**53 + 1, 3.0, 1, "a"}),
    (TruePredicate(), lambda r, s: True),
]

small_values = st.one_of(st.integers(min_value=-3, max_value=5), st.none())
#: Values on every boundary a typed fast path could trip over: the int64
#: and exact-float64 ranges, NaN/inf, strings, floats equal to ints.
hostile_values = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.sampled_from([
        2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1),
        2**62, 2**62 + 1, 2**63, -(2**63) - 1,
    ]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(["a", "b", ""]),
    st.sampled_from([0.0, -0.0, 2.0, 2.5, float(2**53)]),
    st.booleans(),
    st.none(),
)


def reference_probe(entries, probe_row, probe_timestamp, checks,
                    enforce_timestamp=True):
    """Stored ``(row, timestamp)`` pairs a probe returns, in build order,
    and the count the TimeStamp constraint suppresses."""
    results, suppressed = [], 0
    for row, timestamp in entries:
        if not all(c(probe_row, row) for c in checks):
            continue
        if enforce_timestamp and not probe_timestamp > timestamp:
            suppressed += 1
        else:
            results.append((row, timestamp))
    return results, suppressed


def probe_facts(outcome):
    """Everything a probe outcome exposes, in result order."""
    return (
        [(t.identity(), t.done_mask, dict(t.timestamps)) for t in outcome.results],
        outcome.all_matches_known,
        outcome.candidates_examined,
        outcome.suppressed_by_timestamp,
    )


def three_ways(layout, entries, probe_row, probe_timestamp, pool,
               enforce_timestamp=True, evict=()):
    """Probe one SteM per path with the same situation; assert compiled ≡
    interpreted ≡ reference under TimeStamp and return the compiled
    outcome.  The engine's probe always applies TimeStamp, so with
    ``enforce_timestamp`` False only the interpreted reference runs
    without it, held to the reference without it."""
    predicates = [predicate for predicate, _ in pool]

    def situation():
        stem = SteM("S", aliases=("S",), join_columns=LAYOUTS[layout])
        for row, timestamp in entries:
            stem.build(row, timestamp)
        for row in evict:
            assert stem.evict(row)
        probe = singleton_tuple("R", probe_row, layout=TUPLES)
        probe.mark_built("R", probe_timestamp)
        return stem, probe

    resident = [(row, ts) for row, ts in distinct_entries_of(entries)
                if row not in set(evict)]
    checks = [c for _, c in pool]

    def agrees_with_reference(outcome, enforce):
        results, suppressed = reference_probe(
            resident, probe_row, probe_timestamp, checks, enforce
        )
        assert [(t.components["S"], t.timestamps["S"]) for t in outcome.results] == results
        assert outcome.suppressed_by_timestamp == suppressed

    compiled = compiled_probe(*situation(), predicates)
    assert probe_facts(compiled) == probe_facts(interpreted_probe(*situation(), "S", predicates))
    agrees_with_reference(compiled, True)
    if not enforce_timestamp:
        unguarded = interpreted_probe(*situation(), "S", predicates, enforce_timestamp=False)
        agrees_with_reference(unguarded, False)
    return compiled


def distinct_entries_of(entries):
    """What a SteM stores of these builds: a row equal to an earlier one
    (``2**63 == float(2**63)``) is a duplicate build and stores nothing."""
    kept, seen = [], set()
    for row, timestamp in entries:
        if row not in seen:
            seen.add(row)
            kept.append((row, timestamp))
    return kept


def distinct_entries(pairs):
    """Stored rows built at timestamps 1, 2, ..., duplicates dropped."""
    return distinct_entries_of(
        [(s_row(x, y), float(position + 1)) for position, (x, y) in enumerate(pairs)]
    )


@pytest.mark.slow
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestHostileProbeProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_probe_situations(self, layout, data):
        stored = data.draw(st.lists(st.tuples(small_values, small_values),
                                    max_size=12), label="stored rows")
        chosen = data.draw(st.lists(st.sampled_from(range(len(HOSTILE_POOL))),
                                    max_size=5, unique=True), label="predicates")
        probe_row = r3_row(data.draw(small_values), data.draw(small_values),
                           data.draw(small_values))
        three_ways(
            layout, distinct_entries(stored), probe_row,
            data.draw(st.floats(0.0, 50.0), label="probe timestamp"),
            [HOSTILE_POOL[index] for index in sorted(chosen)],
            enforce_timestamp=data.draw(st.booleans(), label="enforce"),
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_type_columns(self, layout, data):
        stored = data.draw(st.lists(st.tuples(hostile_values, hostile_values),
                                    max_size=10), label="stored rows")
        chosen = data.draw(st.lists(st.sampled_from(range(len(HOSTILE_POOL))),
                                    min_size=1, max_size=4, unique=True),
                           label="predicates")
        probe_row = r3_row(0, data.draw(hostile_values), data.draw(hostile_values))
        three_ways(layout, distinct_entries(stored), probe_row, 25.0,
                   [HOSTILE_POOL[index] for index in sorted(chosen)])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_evictions(self, layout, data):
        stored = data.draw(st.lists(st.tuples(small_values, small_values),
                                    min_size=1, max_size=10, unique=True),
                           label="stored rows")
        entries = distinct_entries(stored)
        victims = data.draw(st.lists(st.sampled_from(range(len(entries))),
                                     unique=True), label="evictions")
        pool = [HOSTILE_POOL[0], (selection("S.y", ">=", 0),
                                  check(operator.ge, "S.y", 0))]
        three_ways(layout, entries, r3_row(0, data.draw(small_values)), 30.0,
                   pool, evict=[entries[index][0] for index in victims])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestHostileProbes:
    @pytest.mark.parametrize("member, matched", [
        (2**53 - 1, 2**53 - 1), (2**53 + 1, 2**53 + 1), (2**63, float(2**63)),
    ])
    def test_in_list_members_past_the_exact_float_range(self, layout, member, matched):
        # float(2**53 + 1) == 2.0**53, so a member promoted to float would
        # match the stored 2.0**53; Python's exact int/float equality must
        # not.  The stored 2**63 equals the stored 2.0**63: one row.
        stored = [float(2**53), 2**53 - 1, 2**53 + 1, float(2**63), 2**63, 3.0]
        entries = [(s_row(x, 0), float(ts + 1)) for ts, x in enumerate(stored)]
        outcome = three_ways(layout, entries, r3_row(0, 0), 10.0,
                             [(InList("S.x", [member, 3.0]),
                               lambda r, s: s["x"] in {member, 3.0})])
        assert [t.components["S"]["x"] for t in outcome.results] == [matched, 3.0]

    def test_nan_and_none_operands(self, layout):
        entries = [(s_row(float("nan"), 1), 1.0), (s_row(None, 2), 2.0),
                   (s_row(1, 3), 3.0)]
        pool = [(Comparison("S.x", "<", 5), check(operator.lt, "S.x", 5)),
                (selection("S.y", ">", 0), check(operator.gt, "S.y", 0))]
        outcome = three_ways(layout, entries, r3_row(0, 0), 10.0, pool)
        # NaN < 5 and None < 5 are both false: only the int row survives.
        assert len(outcome.results) == 1 and outcome.candidates_examined == 3

    def test_nan_probe_bound(self, layout):
        entries = [(s_row(i, i), float(i + 1)) for i in range(4)]
        pool = [(Comparison("S.x", "<", "R.a"), check(operator.lt, "S.x", "R.a"))]
        outcome = three_ways(layout, entries, r3_row(0, float("nan")), 10.0, pool)
        assert outcome.results == []  # x < NaN is false everywhere

    def test_infinite_bounds(self, layout):
        entries = [(s_row(i, i), float(i + 1)) for i in range(4)]
        pool = [(selection("S.x", "<", math.inf), check(operator.lt, "S.x", math.inf)),
                (selection("S.y", ">", -math.inf), check(operator.gt, "S.y", -math.inf))]
        outcome = three_ways(layout, entries, r3_row(0, 0), 10.0, pool)
        assert len(outcome.results) == 4

    @pytest.mark.parametrize("probe_timestamp", [5.0, 25.0, 60.0])
    def test_timestamp_suppression_counts(self, layout, probe_timestamp):
        entries = [(s_row(1, i), float(10 * (i + 1))) for i in range(5)]
        outcome = three_ways(layout, entries, r3_row(0, 1), probe_timestamp,
                             [HOSTILE_POOL[0]])
        assert len(outcome.results) + outcome.suppressed_by_timestamp == 5

    def test_self_join(self, layout):
        # Both aliases read one SteM; the probe fills r2 against r1.
        predicates = [equi_join("r1.a", "r2.a"), Comparison("r1.key", "<", "r2.key")]
        rows = [(r3_row(k, k % 3), float(k + 1)) for k in range(8)]
        probe_row = r3_row(2, 2)
        columns = ("a",) if layout == "indexed" else ()
        outcomes = []
        for path in ("compiled", "interpreted"):
            stem = SteM("R", aliases=("r1", "r2"), join_columns=columns)
            for row, ts in rows:
                stem.build(row, ts)
            probe = QTuple({"r1": probe_row}, layout=TUPLES)
            probe.mark_built("r1", 20.0)
            if path == "compiled":
                plan = ProbePlan.compile(predicates, "r2", probe.components,
                                         target_schema=stem.row_schema)
                outcomes.append(stem.probe_with_plan(probe, plan))
            else:
                outcomes.append(interpreted_probe(stem, probe, "r2", predicates))
        assert probe_facts(outcomes[0]) == probe_facts(outcomes[1])
        expected = [row for row, _ in rows
                    if row["a"] == probe_row["a"] and probe_row["key"] < row["key"]]
        assert [t.components["r2"] for t in outcomes[0].results] == expected
        assert expected


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestKeyEqualitySkip:
    """On an indexed layout the probe does not re-check the equality whose
    bucket it iterates, unless the bucket's key is None or NaN; results,
    examined and suppressed counts must still equal the interpreted
    oracle's and the reference's (``three_ways``)."""

    JOIN_A = (equi_join("R.a", "S.x"), check(operator.eq, "R.a", "S.x"))

    def test_none_binding_while_the_none_bucket_holds_rows(self, layout):
        entries = [(s_row(None, 0), 1.0), (s_row(None, 1), 2.0), (s_row(1, 2), 3.0)]
        outcome = three_ways(layout, entries, r3_row(0, None), 10.0, [self.JOIN_A])
        assert outcome.results == []
        assert outcome.candidates_examined == (2 if layout == "indexed" else 3)

    def test_the_same_nan_object_stored_and_probed(self, layout):
        nan = float("nan")
        entries = [(s_row(nan, 0), 1.0), (s_row(nan, 1), 2.0), (s_row(1, 2), 3.0)]
        outcome = three_ways(layout, entries, r3_row(0, nan), 10.0, [self.JOIN_A])
        assert outcome.results == []  # NaN = NaN is false, even for one object
        assert outcome.candidates_examined == (2 if layout == "indexed" else 3)

    @pytest.mark.parametrize("key", [1, 1.0, True])
    def test_equal_keys_of_other_types(self, layout, key):
        entries = [(s_row(1, 0), 1.0), (s_row(1.0, 1), 2.0), (s_row(True, 2), 3.0),
                   (s_row(2, 3), 4.0)]
        outcome = three_ways(layout, entries, r3_row(0, key), 10.0, [self.JOIN_A])
        assert [t.components["S"]["y"] for t in outcome.results] == [0, 1, 2]

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (2, 1)])
    def test_two_equalities_on_one_column_with_different_sources(self, layout, a, b):
        # The bucket comes from the last binding (R.b); R.a = S.x stays in.
        pool = [self.JOIN_A, (equi_join("R.b", "S.x"), check(operator.eq, "R.b", "S.x"))]
        entries = [(s_row(x, y), float(3 * x + y + 1)) for x in (1, 2) for y in (0, 1, 2)]
        outcome = three_ways(layout, entries, r3_row(0, a, b), 20.0, pool)
        assert len(outcome.results) == (3 if a == b else 0)


def test_a_plan_drops_only_the_check_its_binding_satisfies():
    probe = singleton_tuple("R", r3_row(0, 1, 2), layout=TUPLES)
    one = ProbePlan.compile([equi_join("R.a", "S.x"), selection("S.y", "<", 4)],
                            "S", probe.components, target_schema=S_SCHEMA)
    assert one.binding_columns == ("x",)
    assert [len(checks) for checks in one.unkeyed_checks] == [1]
    assert one.unkeyed_checks[0] == one.cmp_checks[1:]
    two = ProbePlan.compile([equi_join("R.a", "S.x"), equi_join("S.x", "R.b")],
                            "S", probe.components, target_schema=S_SCHEMA)
    assert two.unkeyed_checks == (two.cmp_checks[:1],)  # R.a = S.x stays in
    ranged = ProbePlan.compile([Comparison("S.x", "<", "R.a")], "S",
                               probe.components, target_schema=S_SCHEMA)
    assert ranged.binding_columns == () and ranged.unkeyed_checks == ()


# -- operation sequences under each eviction policy, against a list model --------

#: Probe situations: keyed, keyed + residual, full scan (no equality
#: binding), two bindings (the smaller bucket wins while ``y`` is indexed).
SITUATIONS = [
    [(equi_join("R.a", "S.x"), check(operator.eq, "R.a", "S.x"))],
    [(equi_join("R.a", "S.x"), check(operator.eq, "R.a", "S.x")),
     (Comparison("R.b", "<", "S.y"), check(operator.lt, "R.b", "S.y"))],
    [(Comparison("R.b", "<", "S.y"), check(operator.lt, "R.b", "S.y"))],
    [(equi_join("R.a", "S.x"), check(operator.eq, "R.a", "S.x")),
     (equi_join("R.b", "S.y"), check(operator.eq, "R.b", "S.y"))],
]

_probe_operations = st.tuples(
    st.just("probe"),
    st.integers(0, len(SITUATIONS) - 1),
    st.integers(0, 3),    # which long-lived probe tuple
    st.integers(-1, 2),   # R.a
    st.integers(0, 120),  # R.b
)
_build_operations = st.tuples(st.just("build"), st.integers(0, 2), st.integers(0, 120))
stem_operations = st.lists(
    st.one_of(
        _probe_operations, _probe_operations, _probe_operations,
        _build_operations, _build_operations,
        st.tuples(st.just("evict"), st.integers(0, 200)),
        st.tuples(st.just("ensure"), st.just("y")),
        st.tuples(st.just("drop"), st.just("y")),
        st.tuples(st.just("scan_eot")),
    ),
    min_size=4,
    max_size=40,
)

def keep_last(limit):
    """List-model update after a build: keep the ``limit`` newest entries."""
    def slide(model, now):
        del model[:max(len(model) - limit, 0)]
    return slide


def keep_window(window):
    """List-model update after a build at ``now``: keep the window."""
    def slide(model, now):
        model[:] = [entry for entry in model if entry[1] > now - window]
    return slide


#: name -> (SteM eviction spec, list-model window update after a build).
SEQUENCE_POLICIES = {
    "none": ({}, lambda model, now: None),
    "count": ({"eviction": "count", "max_size": 40}, keep_last(40)),
    "time-window": ({"eviction": make_eviction_policy("time-window", window=45)},
                    keep_window(45)),
    "reference-window": ({"eviction": "reference-window", "max_size": 40},
                         keep_last(40)),
}


class SequenceTwins:
    """One operation sequence applied to a compiled-probe SteM and an
    interpreted-probe SteM, and to a list model of the row store."""

    def __init__(self, layout, policy):
        spec, self.slide = SEQUENCE_POLICIES[policy]
        self.lru = policy == "reference-window"
        self.twins = [SteM("S", aliases=("S",), join_columns=LAYOUTS[layout], **spec)
                      for _ in range(2)]
        #: Long-lived probe tuples per twin: repeated probes keep the
        #: build timestamp they were stamped with.
        self.probes = [{}, {}]
        self.model: list[tuple[Row, float]] = []
        self.covered = False
        self.clock = 0.0

    def apply(self, operation):
        kind = operation[0]
        if kind == "probe":
            self.probe(*operation[1:])
        elif kind == "build":
            self.clock += 1.0
            row = s_row(operation[1], operation[2])
            duplicates = {stem.build(row, self.clock).duplicate for stem in self.twins}
            assert duplicates == {any(r == row for r, _ in self.model)}
            if not duplicates.pop():
                self.model.append((row, self.clock))
                before = len(self.model)
                self.slide(self.model, self.clock)
                if len(self.model) < before:
                    self.covered = False  # an eviction drops coverage
        elif kind == "evict" and self.model:
            row, _ = self.model.pop(operation[1] % len(self.model))
            for stem in self.twins:
                assert stem.evict(row)
            self.covered = False
        elif kind == "ensure":
            for stem in self.twins:
                stem.ensure_join_columns([operation[1]])
        elif kind == "drop":
            for stem in self.twins:
                stem.drop_join_column(operation[1])
        elif kind == "scan_eot":
            for stem in self.twins:
                stem.build_eot(EOTTuple(table="S", alias="S", am_name="scan"))
            self.covered = True
        for stem in self.twins:
            assert stem.state_entries() == self.model

    def probe(self, situation, which, a, b):
        self.clock += 1.0
        key = (which, a, b)
        pool = SITUATIONS[situation]
        outcomes = []
        for path, stem, probes in zip(("compiled", "interpreted"), self.twins, self.probes):
            probe = probes.get(key)
            if probe is None:
                # Stamped once: rows built later are suppressed by the
                # TimeStamp constraint when this tuple probes again.
                probe = probes[key] = singleton_tuple("R", r3_row(which, a, b), layout=TUPLES)
                probe.mark_built("R", self.clock)
            predicates = [predicate for predicate, _ in pool]
            if path == "compiled":
                outcome = compiled_probe(stem, probe, predicates)
            else:
                outcome = interpreted_probe(stem, probe, "S", predicates)
            outcomes.append(probe_facts(outcome))
        assert outcomes[0] == outcomes[1]
        stamped = self.probes[0][key].timestamp
        results, suppressed = reference_probe(
            self.model, r3_row(which, a, b), stamped, [c for _, c in pool]
        )
        facts, covered, _, got_suppressed = outcomes[0]
        got = [(ident[-1][2], stamps["S"]) for ident, _, stamps in facts]
        # Compared in build-time order: a reference window reorders the row
        # store but not the index buckets, so result order is the layout's.
        assert sorted(got, key=lambda item: item[1]) == sorted(
            ((row.values, ts) for row, ts in results), key=lambda item: item[1]
        )
        assert got_suppressed == suppressed
        assert covered == self.covered
        if self.lru:
            # Matched rows become the most recently used, in result order.
            matched = [values for values, _ in got]
            kept = [entry for entry in self.model if entry[0].values not in matched]
            moved = {entry[0].values: entry for entry in self.model}
            self.model[:] = kept + [moved[values] for values in matched]
            for stem in self.twins:
                assert stem.state_entries() == self.model


@pytest.mark.parametrize("policy", sorted(SEQUENCE_POLICIES))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@given(prefill=st.sampled_from([0, 1, 30, 45, 60, 90]), operations=stem_operations)
@settings(max_examples=30, deadline=None)
def test_operation_sequences_match_the_list_model(layout, policy, prefill, operations):
    """Build / evict / probe / index changes in any order: both probe paths
    return the reference's matches over the list model and the same coverage
    verdict, and the row store stays the model — including every window's
    own evictions."""
    twins = SequenceTwins(layout, policy)
    for position in range(prefill):
        twins.apply(("build", position % 3, position))
    every_probe = [("probe", situation, 3, a, 60)
                   for situation in range(len(SITUATIONS)) for a in (0, 1)]
    for operation in operations + every_probe:
        twins.apply(operation)
    compiled, interpreted = twins.twins
    assert compiled.stats == interpreted.stats
