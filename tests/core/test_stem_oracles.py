"""A single SteM against oracles that share no code with it.

Every base table's state is one :class:`~repro.core.stem.SteM`, so the
properties the engines lean on are pinned here against independent
references: a nested-loop join over the rows stored so far, the interpreted
probe against the compiled one, one-at-a-time probes against
:meth:`~repro.core.stem.SteM.probe_batch`, and a plain list model of each
eviction window.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.query.probeplan as probeplan_module
from repro.core.stem import (
    CountEviction,
    ReferenceWindowEviction,
    SteM,
    TimeWindowEviction,
    make_eviction_policy,
)
from repro.core.tuples import EOTTuple, singleton_tuple
from repro.errors import ExecutionError
from repro.query.predicates import equi_join
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")

JOIN = equi_join("R.a", "S.x")


def r_row(key, a):
    return Row("R", R_SCHEMA, (key, a))


def s_row(x, y=None):
    return Row("S", S_SCHEMA, (x, x if y is None else y))


def r_probe(key, a, timestamp=None):
    probe = singleton_tuple("R", r_row(key, a))
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


def compiled_probe(stem, probe, predicates=(JOIN,), **options):
    plan = ProbePlan.compile(
        list(predicates), "S", probe.components, target_schema=stem.row_schema
    )
    return stem.probe_with_plan(probe, plan, **options)


@contextmanager
def kernel_cutoff(cutoff):
    """Let probes of any size take the columnar plane when it is enabled."""
    saved = probeplan_module.KERNEL_MIN_CANDIDATES
    probeplan_module.KERNEL_MIN_CANDIDATES = cutoff
    try:
        yield
    finally:
        probeplan_module.KERNEL_MIN_CANDIDATES = saved


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
    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "scan"])
    @settings(max_examples=40, deadline=None)
    @given(history=stem_histories, key=st.integers(0, 6),
           probe_timestamp=st.integers(0, 60))
    def test_compiled_probe_matches_nested_loop(
        self, indexed, columnar, history, key, probe_timestamp
    ):
        with kernel_cutoff(0):
            stem = SteM("S", aliases=("S",),
                        join_columns=("x",) if indexed else (),
                        columnar=columnar)
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
        outcome = stem.probe(r_probe(0, key, float(probe_timestamp)), "S", [JOIN])
        results, suppressed = nested_loop(entries, key, probe_timestamp)
        assert matched_rows(outcome) == results
        assert outcome.suppressed_by_timestamp == suppressed

    @pytest.mark.parametrize("update_last_match", [False, True])
    def test_compiled_and_interpreted_probes_agree(self, update_last_match):
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
                a = interpreted.probe(left, "S", [JOIN],
                                      update_last_match=update_last_match)
                b = compiled_probe(compiled, right,
                                   update_last_match=update_last_match)
                assert outcome_key(a) == outcome_key(b)
                assert a.candidates_examined == b.candidates_examined
                assert left.last_match_ts == right.last_match_ts

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    def test_probe_batch_equals_probes_one_at_a_time(self, columnar):
        with kernel_cutoff(0):
            one, batched = (
                SteM("S", aliases=("S",), join_columns=("x",), columnar=columnar)
                for _ in range(2)
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

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    def test_equal_values_of_other_numeric_types_match(self, columnar):
        # 1 == 1.0 == True: a row built under one representation must answer
        # a probe bound under another, through the index and the kernels.
        with kernel_cutoff(0):
            stem = SteM("S", aliases=("S",), join_columns=("x",),
                        columnar=columnar)
            for ts, x in enumerate([0, 1, 2, 1, 3]):
                stem.build(s_row(x, ts), float(ts))
            for value in (1, 1.0, True):
                outcome = compiled_probe(stem, r_probe(0, value, 100.0))
                assert [row["y"] for row in matched_rows(outcome)] == [1, 3]
                interpreted = stem.probe(r_probe(0, value, 100.0), "S", [JOIN])
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
    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    @pytest.mark.parametrize("max_size", [1, 7, 10, 16])
    def test_keeps_exactly_the_newest_rows(self, max_size, columnar):
        with kernel_cutoff(0):
            stem = SteM("S", aliases=("S",), join_columns=("x",),
                        eviction="count", max_size=max_size, columnar=columnar)
            built: list[Row] = []
            for ts in range(50):
                row = s_row(ts % 5, ts)
                stem.build(row, float(ts))
                built.append(row)
                window = built[-max_size:]
                assert list(stem) == window
                assert stem.stats["evictions"] == len(built) - len(window)
                assert stem.min_timestamp == float(ts - len(window) + 1)
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
            assert stem.min_timestamp == float(survivors[0])
            assert stem.max_timestamp == float(ts)

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
        assert stem.min_timestamp == 0.0 and stem.max_timestamp == 5.0


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
        assert stem.remove_build_listener(on_build)
        stem.build(s_row(6), 10.0)
        assert len(evicted) == 3 and len(built) == 7

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
