"""Figure 7: query Q1 (R ⋈ S on R.a = S.x) — index-join module vs SteMs.

Paper claims reproduced here:

* 7(i) — results over time: the encapsulated index join's output curve is
  convex ("parabolic": slow at first, accelerating as its lookup cache warms
  up behind head-of-line blocking), the SteM plan's output is near-linear and
  dominates at every point in time, and both finish at about the same time
  (~400 virtual seconds at paper scale).
* 7(ii) — the number of probes into the remote S index is essentially
  identical under both architectures (≈ the 250 distinct values of R.a), and
  accumulates at the same rate: the SteM advantage is *not* about doing
  fewer remote lookups, it is about not blocking cheap cache hits behind
  them.
"""

from __future__ import annotations

from conftest import sample_times

from repro.bench.experiments import index_probe_series, run_figure7
from repro.bench.report import comparison_summary
from tests.helpers import has_duplicates, shape_is_convex, shape_is_near_linear

#: Paper-scale parameters (Table 3 / section 4.2).
FIG7_PARAMS = dict(r_rows=1000, distinct_a=250, r_scan_rate=50.0, s_index_latency=1.6)


def test_fig7_results_over_time(benchmark):
    """Figure 7(i): output curves of the two architectures."""
    report = benchmark.pedantic(
        run_figure7, kwargs=FIG7_PARAMS, rounds=1, iterations=1
    )
    index_result = report.results["index-join"]
    stems_result = report.results["stems"]

    # Both architectures produce the complete, duplicate-free result.
    assert index_result.row_count == stems_result.row_count == 1000
    assert not has_duplicates(index_result)
    assert not has_duplicates(stems_result)

    # Both take about the same total time (paper: ~400 s).
    assert index_result.completion_time is not None
    assert stems_result.completion_time is not None
    assert 300.0 <= index_result.completion_time <= 500.0
    assert stems_result.completion_time <= index_result.completion_time * 1.1

    # Shape: index join convex, SteMs near-linear, SteMs dominate throughout.
    end = index_result.completion_time
    assert shape_is_convex(index_result.output_series, 0.0, end)
    assert shape_is_near_linear(stems_result.output_series, 0.0, stems_result.completion_time)
    for time in sample_times(end * 0.9):
        assert stems_result.results_at(time) >= index_result.results_at(time)

    times = sample_times(end)
    print()
    print("Figure 7(i): cumulative result tuples over virtual time")
    print(comparison_summary(
        {"index-join": index_result.output_series, "stems": stems_result.output_series},
        times,
    ))
    benchmark.extra_info["completion_index_join_s"] = round(index_result.completion_time, 1)
    benchmark.extra_info["completion_stems_s"] = round(stems_result.completion_time, 1)
    benchmark.extra_info["results_at_half_time"] = {
        "index-join": index_result.results_at(end / 2),
        "stems": stems_result.results_at(end / 2),
    }


def test_fig7_index_probes(benchmark):
    """Figure 7(ii): probes into the S index are ~identical for both plans."""
    report = benchmark.pedantic(
        run_figure7, kwargs=FIG7_PARAMS, rounds=1, iterations=1
    )
    probes = index_probe_series(report)
    index_probes = probes["index-join"]
    stems_probes = probes["stems"]

    # Both issue one lookup per distinct R.a value (250), not one per R tuple.
    assert index_probes.final_count == 250
    assert stems_probes.final_count == 250

    # And they accumulate at nearly the same rate over time.
    end = min(index_probes.final_time, stems_probes.final_time)
    for time in sample_times(end):
        difference = abs(index_probes.count_at(time) - stems_probes.count_at(time))
        assert difference <= max(10, 0.1 * max(index_probes.count_at(time), 1))

    print()
    print("Figure 7(ii): cumulative probes into the S index over virtual time")
    print(comparison_summary(probes, sample_times(end)))
    benchmark.extra_info["index_probes"] = {
        "index-join": index_probes.final_count,
        "stems": stems_probes.final_count,
    }
