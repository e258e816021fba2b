"""Tests for the SteM data structure: builds, probes, EOTs, timestamps, eviction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.core.stem import SteM
from repro.core.tuples import EOTTuple, QTuple
from repro.query.predicates import selection
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import equi_join, layout_over, singleton_tuple
from tests.reference.interpreted_probe import interpreted_probe

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")

JOIN = equi_join("R.a", "S.x")
LAYOUT = layout_over("R", "S", "T")


def r_row(key, a):
    return Row("R", R_SCHEMA, (key, a))


def s_row(x, y=None):
    return Row("S", S_SCHEMA, (x, x if y is None else y))


def r_probe(key, a, timestamp=None):
    probe = singleton_tuple("R", r_row(key, a), layout=LAYOUT)
    if timestamp is not None:
        probe.mark_built("R", timestamp)
    return probe


def make_stem() -> SteM:
    return SteM("S", aliases=("S",), join_columns=("x",))


def newest(stem: SteM) -> float | None:
    """The largest build timestamp the SteM still stores (None when empty)."""
    return max(map(stem.timestamp_of, stem), default=None)


class TestBuild:
    def test_build_assigns_timestamp(self):
        stem = make_stem()
        outcome = stem.build(s_row(1), 5.0)
        assert not outcome.duplicate
        assert outcome.timestamp == 5.0
        assert len(stem) == 1
        assert stem.timestamp_of(s_row(1)) == 5.0

    def test_duplicate_detection_keeps_original_timestamp(self):
        stem = make_stem()
        stem.build(s_row(1), 5.0)
        outcome = stem.build(s_row(1), 9.0)
        assert outcome.duplicate
        assert outcome.timestamp == 5.0
        assert len(stem) == 1
        assert stem.stats["duplicates"] == 1

    def test_wrong_table_rejected(self):
        stem = make_stem()
        with pytest.raises(ExecutionError):
            stem.build(r_row(1, 1), 1.0)

    def test_max_timestamp(self):
        stem = make_stem()
        assert newest(stem) is None
        stem.build(s_row(1), 3.0)
        stem.build(s_row(2), 7.0)
        assert newest(stem) == 7.0


class TestProbe:
    def test_probe_returns_concatenations(self):
        stem = make_stem()
        stem.build(s_row(4), 1.0)
        stem.build(s_row(5), 2.0)
        probe = r_probe(0, 4, timestamp=10.0)
        outcome = stem.probe(probe, "S", [JOIN])
        assert len(outcome.results) == 1
        result = outcome.results[0]
        assert result.aliases == {"R", "S"}
        assert result.value("S", "x") == 4
        assert result.is_done(JOIN)

    def test_probe_unbuilt_tuple_sees_everything(self):
        stem = make_stem()
        stem.build(s_row(4), 1.0)
        probe = r_probe(0, 4)  # never built: timestamp is infinite
        outcome = stem.probe(probe, "S", [JOIN])
        assert len(outcome.results) == 1

    def test_timestamp_constraint_suppresses_older_probe(self):
        stem = make_stem()
        stem.build(s_row(4), 10.0)
        probe = r_probe(0, 4, timestamp=5.0)  # built before the S row
        outcome = stem.probe(probe, "S", [JOIN])
        assert outcome.results == []
        assert outcome.suppressed_by_timestamp == 1

    def test_timestamp_constraint_can_be_disabled(self):
        """Figure 3's anomaly, shown on the interpreted reference (the
        engine's probe has no switch): R built at 5, S at 10, each probes
        the other's SteM.  The S probe finds R either way; without
        TimeStamp the R probe finds S too, and the pair is output twice."""
        r_stem = SteM("R", aliases=("R",), join_columns=("a",))
        r_stem.build(r_row(0, 4), 5.0)
        s_stem = make_stem()
        s_stem.build(s_row(4), 10.0)
        s_probe = singleton_tuple("S", s_row(4), layout=LAYOUT)
        s_probe.mark_built("S", 10.0)
        r_probe_ = r_probe(0, 4, timestamp=5.0)
        found_by_s = interpreted_probe(r_stem, s_probe, "R", [JOIN]).results
        assert len(found_by_s) == 1
        assert s_stem.probe(r_probe_, "S", [JOIN]).results == []
        assert interpreted_probe(s_stem, r_probe_, "S", [JOIN]).results == []
        unguarded = interpreted_probe(
            s_stem, r_probe_, "S", [JOIN], enforce_timestamp=False
        ).results
        assert [t.components for t in unguarded] == [t.components for t in found_by_s]

    def test_probe_uses_secondary_index(self):
        stem = make_stem()
        for value in range(100):
            stem.build(s_row(value), float(value))
        probe = r_probe(0, 42, timestamp=1000.0)
        outcome = stem.probe(probe, "S", [JOIN])
        assert len(outcome.results) == 1
        assert outcome.candidates_examined == 1  # index, not a scan of 100 rows

    def test_probe_without_binding_scans_all(self):
        stem = SteM("S", aliases=("S",), join_columns=())
        stem.build(s_row(1, 5), 1.0)
        stem.build(s_row(2, 5), 2.0)
        predicate = selection("S.y", "=", 5)
        probe = r_probe(0, 1, timestamp=10.0)
        outcome = stem.probe(probe, "S", [predicate])
        assert len(outcome.results) == 2
        assert outcome.candidates_examined == 2

    def test_probe_applies_all_predicates(self):
        stem = make_stem()
        stem.build(s_row(4, 100), 1.0)
        stem.build(s_row(4, 1), 2.0)
        probe = r_probe(0, 4, timestamp=10.0)
        outcome = stem.probe(probe, "S", [JOIN, selection("S.y", "<", 50)])
        assert len(outcome.results) == 1
        assert outcome.results[0].value("S", "y") == 1

    def test_probe_rejects_spanned_alias_and_wrong_alias(self):
        stem = make_stem()
        probe = QTuple({"R": r_row(0, 4), "S": s_row(4)}, layout=LAYOUT)
        with pytest.raises(ExecutionError):
            stem.probe(probe, "S", [JOIN])
        with pytest.raises(ExecutionError):
            stem.probe(r_probe(0, 4), "T", [JOIN])

    def test_repeated_probe_returns_every_match_again(self):
        """BoundedRepetition is the eddy's rule, not the SteM's: a probe
        carries no per-SteM memory, so probing twice finds the same rows,
        plus any row built since that is older than the probe."""
        stem = make_stem()
        stem.build(s_row(4), 1.0)
        probe = r_probe(0, 4, timestamp=100.0)
        first = stem.probe(probe, "S", [JOIN])
        second = stem.probe(probe, "S", [JOIN])
        assert [r.value("S", "y") for r in first.results] == [4]
        assert [r.value("S", "y") for r in second.results] == [4]
        stem.build(s_row(4, 99), 50.0)
        third = stem.probe(probe, "S", [JOIN])
        assert sorted(r.value("S", "y") for r in third.results) == [4, 99]


class TestEOTCoverage:
    def test_scan_eot_covers_everything(self):
        stem = make_stem()
        assert not stem.covers({"x": 3})
        stem.build_eot(EOTTuple(table="S", alias="S", am_name="scan"))
        assert stem.scan_complete
        assert stem.covers({"x": 3})
        assert stem.covers(None)

    def test_index_eot_covers_one_key(self):
        stem = make_stem()
        stem.build_eot(
            EOTTuple(table="S", alias="S", am_name="idx",
                     bound_columns=("x",), bound_values=(3,))
        )
        assert stem.covers({"x": 3})
        assert not stem.covers({"x": 4})
        assert not stem.covers(None)

    def test_probe_reports_coverage(self):
        stem = make_stem()
        stem.build(s_row(3), 1.0)
        probe = r_probe(0, 3, timestamp=10.0)
        assert not stem.probe(probe, "S", [JOIN]).all_matches_known
        stem.build_eot(
            EOTTuple(table="S", alias="S", am_name="idx",
                     bound_columns=("x",), bound_values=(3,))
        )
        assert stem.probe(probe, "S", [JOIN]).all_matches_known

    def test_eot_for_wrong_table_rejected(self):
        stem = make_stem()
        with pytest.raises(ExecutionError):
            stem.build_eot(EOTTuple(table="R", alias="R", am_name="scan"))


class TestEviction:
    def test_explicit_evict(self):
        stem = make_stem()
        stem.build(s_row(1), 1.0)
        stem.build_eot(EOTTuple(table="S", alias="S", am_name="scan"))
        assert stem.evict(s_row(1))
        assert len(stem) == 0
        # Coverage is invalidated once data has been dropped.
        assert not stem.covers({"x": 1})
        assert not stem.evict(s_row(1))

    def test_bounded_stem_evicts_oldest(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=3)
        for value in range(5):
            stem.build(s_row(value), float(value))
        assert len(stem) == 3
        remaining = {row["x"] for row in stem}
        assert remaining == {2, 3, 4}
        assert stem.stats["evictions"] == 2


class TestTimestampMaintenance:
    def test_incremental_max_across_builds(self):
        stem = make_stem()
        # Out-of-order timestamps (unit-test territory; engines build in
        # monotone order) are each kept with their row.
        stem.build(s_row(1), 5.0)
        stem.build(s_row(2), 9.0)
        stem.build(s_row(3), 3.0)
        assert [stem.timestamp_of(row) for row in stem] == [5.0, 9.0, 3.0]
        assert newest(stem) == 9.0

    def test_eviction_of_extreme_triggers_recompute(self):
        stem = make_stem()
        stem.build(s_row(1), 1.0)
        stem.build(s_row(2), 2.0)
        stem.build(s_row(3), 3.0)
        assert stem.evict(s_row(1))  # the oldest leaves: the maximum stands
        assert newest(stem) == 3.0
        assert stem.evict(s_row(3))  # the maximum leaves
        assert newest(stem) == 2.0
        # A probe between the two builds sees only the surviving older row.
        outcome = stem.probe(r_probe(0, 2, timestamp=2.5), "S", [JOIN])
        assert [r.value("S", "x") for r in outcome.results] == [2]

    def test_eviction_to_empty_resets_extremes(self):
        stem = make_stem()
        stem.build(s_row(1), 4.0)
        assert stem.evict(s_row(1))
        assert newest(stem) is None
        stem.build(s_row(1), 6.0)  # the same row, built afresh
        assert stem.timestamp_of(s_row(1)) == 6.0
    def test_bounded_fifo_eviction_advances_minimum(self):
        stem = SteM("S", aliases=("S",), join_columns=("x",), max_size=2)
        for value in range(4):
            stem.build(s_row(value), float(value + 1))
        assert [stem.timestamp_of(row) for row in stem] == [3.0, 4.0]
        assert newest(stem) == 4.0


@settings(max_examples=40, deadline=None)
@given(
    build_keys=st.lists(st.integers(0, 9), max_size=30),
    probe_key=st.integers(0, 9),
)
def test_property_probe_finds_exactly_matching_builds(build_keys, probe_key):
    """Property: an unbuilt probe finds exactly the stored rows with its key."""
    stem = SteM("S", aliases=("S",), join_columns=("x",))
    expected = 0
    seen = set()
    for position, key in enumerate(build_keys):
        duplicate = (key, key) in seen
        seen.add((key, key))
        stem.build(s_row(key), float(position))
        if key == probe_key and not duplicate:
            expected += 1
    probe = r_probe(0, probe_key)
    outcome = stem.probe(probe, "S", [JOIN])
    assert len(outcome.results) == expected
