"""Tests for the benchmark harness: workloads, series, and text reports."""

import bisect

from hypothesis import given, settings, strategies as st

from repro.bench.report import comparison_summary, sampled_table, sparkline
from repro.bench.workloads import (
    competitive_ams_workload,
    cyclic_workload,
    prioritized_workload,
    q1_workload,
    q4_workload,
)
from repro.engine.results import Series
from repro.query.binding import validate_bindings
from tests.helpers import shape_is_convex, shape_is_near_linear, time_to_count


class TestWorkloads:
    def test_q1_workload_matches_table3(self):
        workload = q1_workload()
        assert len(workload.catalog.table("R")) == 1000
        assert len({row["a"] for row in workload.catalog.table("R")}) == 250
        assert not workload.catalog.has_scan("S")
        assert workload.query.name == "Q1"
        # The workload is executable under its bind-field constraints.
        plan = validate_bindings(workload.query, workload.catalog)
        assert plan.driver_aliases == {"R"}

    def test_q1_workload_is_parameterisable(self):
        workload = q1_workload(r_rows=100, distinct_a=10, s_index_latency=0.3)
        assert len(workload.catalog.table("R")) == 100
        assert workload.parameters["s_index_latency"] == 0.3
        assert workload.catalog.indexes("S")[0].latency == 0.3

    def test_q4_workload_has_both_t_access_methods(self):
        workload = q4_workload()
        assert workload.catalog.has_scan("T")
        assert len(workload.catalog.indexes("T")) == 1
        assert workload.query.name == "Q4"

    def test_competitive_workload_declares_two_r_scans(self):
        workload = competitive_ams_workload()
        assert len(workload.catalog.scans("R")) == 2
        stalling = [s for s in workload.catalog.scans("R") if s.stall_at is not None]
        assert len(stalling) == 1

    def test_cyclic_workload_is_cyclic(self):
        from repro.query.layout import PlanLayout

        workload = cyclic_workload(rows=50)
        layout = PlanLayout(workload.query)
        # Three aliases, each joined to both others: a triangle.
        assert len(layout.alias_order) == 3
        assert all(
            layout.adjacency[alias] == layout.all_alias_mask & ~layout.bit_of(alias)
            for alias in layout.alias_order
        )
        stalled = [
            s for s in workload.catalog.scans("C") if s.stall_at is not None
        ]
        assert stalled and stalled[0].stall_duration == 20.0

    def test_prioritized_workload_carries_a_preference(self):
        workload = prioritized_workload(rows=100, priority_fraction=0.2)
        assert len(workload.preferences) == 1
        preference = workload.preferences[0]
        assert preference.priority > 0
        assert workload.parameters["priority_threshold"] == 5

    def test_workloads_are_independent_instances(self):
        first = q1_workload()
        second = q1_workload()
        assert first.catalog is not second.catalog
        assert first.catalog.table("R") is not second.catalog.table("R")


class TestSeries:
    def make(self):
        return Series.from_points([(1.0, 10), (2.0, 25), (4.0, 60)], name="demo")

    def test_count_at_steps(self):
        series = self.make()
        assert series.count_at(0.5) == 0
        assert series.count_at(1.0) == 10
        assert series.count_at(3.0) == 25
        assert series.count_at(10.0) == 60

    def test_count_at_equals_a_linear_scan(self):
        """``count_at`` bisects the points in place (it used to copy every
        time out of them per call); the step function is unchanged."""

        def scan(points, time):
            count = 0
            for point_time, value in points:
                if point_time <= time:
                    count = value
            return count

        stepped = [(1.0, 1), (1.0, 2), (1.0, 3), (2.5, 4), (4.0, 5), (4.0, 6)]
        for points in ([], stepped[:1], stepped):
            series = Series.from_points(points)
            for time in (-1.0, 0.0, 0.999, 1.0, 1.001, 2.5, 3.0, 4.0, 4.001, 1e9):
                assert series.count_at(time) == scan(points, time), (points, time)

    def test_final_and_time_to_count(self):
        series = self.make()
        assert series.final_count == 60
        assert series.final_time == 4.0
        assert time_to_count(series, 25) == 2.0
        assert time_to_count(series, 61) is None

    def test_empty_series(self):
        empty = Series()
        assert empty.final_count == 0
        assert empty.count_at(10.0) == 0
        assert len(empty) == 0

    def test_count_at_sample_times(self):
        series = self.make()
        assert [series.count_at(t) for t in (1.0, 4.0)] == [10, 60]

    def test_points_are_built_afresh_and_iteration_streams(self):
        series = Series((1.0, 2.0, 2.0), name="results")
        assert series.points == ((1.0, 1), (2.0, 2), (2.0, 3))
        assert series.points is not series.points
        pairs = iter(series)
        assert next(pairs) == (1.0, 1) and next(pairs) == (2.0, 2)
        assert series == Series.from_points(series.points, name="results")
        assert series != Series.from_points(series.points, name="other")
        assert series != Series.from_points([(1.0, 1), (2.0, 2), (2.0, 4)], name="results")

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.25]), max_size=12).map(sorted),
        explicit=st.booleans(),
        steps=st.lists(st.integers(-2, 5), min_size=12, max_size=12),
        probes=st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 3.0, 7.25, 9.0]), max_size=6),
        targets=st.lists(st.integers(-3, 15), max_size=6),
    )
    def test_answers_match_the_tuple_of_points(self, times, explicit, steps, probes, targets):
        """Drawn series (empty, tied times, implicit 1..n or drawn explicit
        counts) answer exactly as the former tuple-of-points ``Series``."""
        if explicit:
            counts = [sum(steps[: i + 1]) for i in range(len(times))]
        else:
            counts = list(range(1, len(times) + 1))
        points = tuple(zip(times, counts))
        series = (
            Series.from_points(points, name="s") if explicit else Series(times, name="s")
        )
        assert (series.counts is None) is not explicit
        assert series.points == points and tuple(series) == points
        assert len(series) == len(points)
        assert series.final_count == (points[-1][1] if points else 0)
        assert series.final_time == (points[-1][0] if points else 0.0)
        for time in probes:
            position = bisect.bisect_right(points, time, key=lambda point: point[0])
            assert series.count_at(time) == (points[position - 1][1] if position else 0)
        for count in targets:
            expected = next((time for time, value in points if value >= count), None)
            assert time_to_count(series, count) == expected, count
        reference = Series.from_points(points, name="s")
        assert series == reference and hash(series) == hash(reference)
        assert [series.count_at(t) for t in probes] == [reference.count_at(t) for t in probes]


class TestReportHelpers:
    def test_sampled_table_contains_all_series(self):
        table = sampled_table(
            {"a": Series.from_points([(1.0, 5)]), "b": Series.from_points([(2.0, 9)])},
            [1.0, 2.0],
        )
        assert "a" in table and "b" in table
        assert "5" in table and "9" in table

    def test_sparkline_scales_to_peak(self):
        series = Series.from_points([(float(i), i * 10) for i in range(1, 11)])
        line = sparkline(series, [float(i) for i in range(1, 11)])
        assert len(line) == 10
        assert line[-1] == "@"  # the peak uses the densest character

    def test_sparkline_of_empty_series_is_blank(self):
        assert sparkline(Series(), [1.0, 2.0]).strip() == ""

    def test_comparison_summary_mentions_finals(self):
        text = comparison_summary(
            {"x": Series.from_points([(1.0, 3), (2.0, 7)])}, [1.0, 2.0]
        )
        assert "final=7" in text

    def test_shape_detectors(self):
        convex = Series.from_points([(t, int(t * t)) for t in range(1, 11)])
        linear = Series.from_points([(t, 10 * t) for t in range(1, 11)])
        assert shape_is_convex(convex, 0.0, 10.0)
        assert not shape_is_convex(linear, 0.0, 10.0)
        assert shape_is_near_linear(linear, 0.0, 10.0)
        assert not shape_is_near_linear(convex, 0.0, 10.0)
        assert not shape_is_convex(linear, 5.0, 5.0)  # degenerate interval
        assert not shape_is_near_linear(Series(), 0.0, 10.0)
