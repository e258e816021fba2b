"""Integration tests reproducing the paper's experimental claims at small scale.

The full-scale reproductions live in ``benchmarks/``; these tests run the
same experiments with smaller sources so the whole suite stays fast, and
assert the *qualitative* claims: curve shapes, crossovers, probe counts,
adaptation behaviour.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    index_probe_series,
    run_competitive_ams,
    run_figure7,
    run_figure8,
    run_prioritized,
    run_spanning_tree,
)
from tests.helpers import has_duplicates, shape_is_convex, shape_is_near_linear


@pytest.fixture(scope="module")
def figure7():
    # 1/4-scale version of the paper's setup: 250 rows, 60 distinct values.
    return run_figure7(r_rows=250, distinct_a=60, r_scan_rate=50.0, s_index_latency=0.8)


@pytest.fixture(scope="module")
def figure8():
    # ~1/4-scale version of Q4.
    return run_figure8(rows=250, r_scan_rate=17.0, t_scan_rate=6.7, t_index_latency=0.2)


class TestFigure7:
    def test_both_plans_produce_all_results(self, figure7):
        for result in figure7.results.values():
            assert result.row_count == 250
            assert not has_duplicates(result)

    def test_completion_times_are_comparable(self, figure7):
        index_time = figure7.results["index-join"].completion_time
        stems_time = figure7.results["stems"].completion_time
        assert index_time is not None and stems_time is not None
        assert stems_time <= index_time * 1.15

    def test_stems_dominate_on_the_online_metric(self, figure7):
        """At every sampled time the SteM plan has produced at least as much."""
        end = figure7.results["index-join"].completion_time
        for fraction in (0.2, 0.4, 0.6, 0.8):
            time = end * fraction
            assert (
                figure7.results["stems"].results_at(time)
                >= figure7.results["index-join"].results_at(time)
            )

    def test_index_join_curve_is_convex_and_stems_near_linear(self, figure7):
        end = figure7.results["index-join"].completion_time
        assert shape_is_convex(figure7.results["index-join"].output_series, 0.0, end)
        stems_end = figure7.results["stems"].completion_time
        assert shape_is_near_linear(figure7.results["stems"].output_series, 0.0, stems_end)

    def test_index_probe_counts_match_distinct_values(self, figure7):
        probes = index_probe_series(figure7)
        assert probes["index-join"].final_count == 60
        assert probes["stems"].final_count == 60

    def test_probe_curves_nearly_identical(self, figure7):
        """Figure 7(ii): the lookup caches build up at the same rate."""
        probes = index_probe_series(figure7)
        end = min(probes["index-join"].final_time, probes["stems"].final_time)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            time = end * fraction
            baseline = probes["index-join"].count_at(time)
            stems = probes["stems"].count_at(time)
            assert abs(baseline - stems) <= max(5, 0.15 * max(baseline, stems))


class TestFigure8:
    def test_all_three_produce_all_results(self, figure8):
        for result in figure8.results.values():
            assert result.row_count == 250
            assert not has_duplicates(result)

    def test_index_join_wins_early(self, figure8):
        """Figure 8(i): early on, the index join is ahead of the hash join."""
        early = 0.1 * figure8.results["index-join"].completion_time
        assert (
            figure8.results["index-join"].results_at(early)
            > figure8.results["hash-join"].results_at(early)
        )

    def test_hash_join_wins_overall(self, figure8):
        """Figure 8(ii): the hash join completes well before the index join."""
        hash_time = figure8.results["hash-join"].completion_time
        index_time = figure8.results["index-join"].completion_time
        assert hash_time < 0.9 * index_time

    def test_hybrid_tracks_the_best_of_both(self, figure8):
        index_result = figure8.results["index-join"]
        hash_result = figure8.results["hash-join"]
        hybrid = figure8.results["hybrid"]
        end = max(index_result.completion_time, hash_result.completion_time)
        for fraction in (0.1, 0.25, 0.5, 0.75, 1.0):
            time = end * fraction
            best = max(index_result.results_at(time), hash_result.results_at(time))
            # "Tracks" = within 20% of the better baseline at all times.
            assert hybrid.results_at(time) >= 0.8 * best

    def test_hybrid_completion_close_to_hash_join(self, figure8):
        hybrid_time = figure8.results["hybrid"].completion_time
        hash_time = figure8.results["hash-join"].completion_time
        assert hybrid_time <= hash_time * 1.15

    def test_hybrid_actually_uses_both_access_methods(self, figure8):
        """Hybridisation evidence: some (but not all) lookups go to the index."""
        lookups = figure8.results["hybrid"].total_index_lookups()
        assert 0 < lookups < 250
        # And the T scan also contributed rows (the SteM holds scan deliveries).
        stem_builds = figure8.results["hybrid"].module_stats["stem:T"]["builds"]
        assert stem_builds >= 250


class TestCompetitiveAccessMethods:
    @pytest.fixture(scope="class")
    def report(self):
        return run_competitive_ams(rows=300, slow_stall_at=1.0, slow_stall_duration=40.0)

    def test_results_identical_under_competition(self, report):
        assert (
            sorted(report.results["competitive"].identities())
            == sorted(report.results["single-am-flaky"].identities())
        )

    def test_competition_beats_the_stalled_am(self, report):
        stalled = report.results["single-am-flaky"].completion_time
        competitive = report.results["competitive"].completion_time
        assert competitive < 0.5 * stalled

    def test_redundant_work_absorbed_by_stem(self, report):
        """Duplicates from the second AM die at the SteM build, not later."""
        assert int(report.notes["duplicates_absorbed_by_stems"]) >= 250
        assert not has_duplicates(report.results["competitive"])


class TestSpanningTreeAdaptation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_spanning_tree(rows=120, stall_duration=15.0)

    def test_same_final_results(self, report):
        assert (
            sorted(report.results["stems"].identities())
            == sorted(report.results["static-tree-through-C"].identities())
        )

    def test_stems_produce_partial_results_during_stall(self, report):
        during_stall = 10.0
        stems_partials = report.results["stems"].partials_at(["A", "B"], during_stall)
        static_partials = report.results["static-tree-through-C"].partials_at(
            ["A", "B"], during_stall
        )
        assert stems_partials > 50
        assert static_partials == 0


class TestPrioritizedReordering:
    @pytest.fixture(scope="class")
    def report(self):
        return run_prioritized(rows=250, priority_fraction=0.1)

    def test_results_are_unaffected_by_preferences(self, report):
        assert (
            sorted(report.results["prioritized"].identities())
            == sorted(report.results["no-priority"].identities())
        )

    def test_prioritised_results_arrive_earlier(self, report):
        baseline = float(report.notes["mean_priority_output_time[no-priority]"])
        prioritized = float(report.notes["mean_priority_output_time[prioritized]"])
        assert prioritized < 0.8 * baseline
