"""Ablation 1: how much of Figure 7 is head-of-line blocking?

The index-join module of Figure 7 serves a *single* input queue, so cheap
cache-hit probes wait behind 1.6-second remote lookups regardless of how
large that queue is.  Sweeping the queue capacity shows that bounding the
queue does not rescue the encapsulated design (the blocking is in the
sequential service, not in the queue length), while the SteM plan — whose
cache probes and remote lookups live in different modules — is unaffected by
construction.  This isolates the architectural claim of section 4.2.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import q1_workload
from repro.engine.api import execute
from repro.engine.joins_engine import JoinSpec

SCALE = dict(r_rows=400, distinct_a=100, r_scan_rate=50.0, s_index_latency=0.8)
CAPACITIES = [1, 5, 20, None]


def run_index_join_with_capacity(capacity):
    workload = q1_workload(**SCALE)
    plan = [
        JoinSpec(
            kind="index",
            left=("R",),
            right="S",
            index_columns=("x",),
            lookup_latency=SCALE["s_index_latency"],
            queue_capacity=capacity,
        )
    ]
    return execute(workload.query, workload.catalog, engine="eddy-joins", plan=plan)


@pytest.mark.parametrize("capacity", CAPACITIES, ids=lambda c: f"capacity={c}")
def test_queue_capacity_does_not_fix_head_of_line_blocking(benchmark, capacity):
    result = benchmark.pedantic(
        run_index_join_with_capacity, args=(capacity,), rounds=1, iterations=1
    )
    assert result.row_count == 400
    # Completion stays pinned to (distinct values x lookup latency): the
    # encapsulated module is lookup-bound at every queue capacity.
    lower_bound = 100 * SCALE["s_index_latency"]
    assert result.completion_time >= lower_bound * 0.95
    benchmark.extra_info["completion_s"] = round(result.completion_time, 1)
    benchmark.extra_info["results_at_half"] = result.results_at(lower_bound / 2)


def test_stems_reference_point(benchmark):
    """The SteM plan under the same workload, for comparison in the report."""
    workload = q1_workload(**SCALE)
    result = benchmark.pedantic(
        execute, args=(workload.query, workload.catalog), kwargs={"policy": "naive"},
        rounds=1, iterations=1,
    )
    assert result.row_count == 400
    lower_bound = 100 * SCALE["s_index_latency"]
    # Same completion regime, but at the halfway point the SteM plan has
    # produced far more than the blocked index-join module ever does.
    assert result.results_at(lower_bound / 2) >= 150
    benchmark.extra_info["completion_s"] = round(result.completion_time, 1)
    benchmark.extra_info["results_at_half"] = result.results_at(lower_bound / 2)
