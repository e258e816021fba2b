"""Ablation 2: routing-policy sweep on Q4.

The SteM architecture separates *mechanism* (SteMs + constraints, which
guarantee correctness) from *policy* (which only affects performance).  This
ablation runs the same Q4 workload under every shipped policy and checks
that (a) the answer is always identical, and (b) the benefit policy's online
performance is at least as good as the naive and lottery policies' — i.e.
the adaptivity is in the policy, the safety is in the mechanism.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import q4_workload
from repro.core.policies import make_policy
from repro.engine.api import execute
from tests.helpers import has_duplicates

SCALE = dict(rows=400, r_scan_rate=17.0, t_scan_rate=6.7, t_index_latency=0.2)
POLICIES = ["naive", "lottery", "benefit", "random"]


def run_policy(policy_name: str):
    workload = q4_workload(**SCALE)
    return execute(workload.query, workload.catalog, policy=make_policy(policy_name))


@pytest.mark.parametrize("policy_name", POLICIES)
def test_policy_ablation(benchmark, policy_name):
    result = benchmark.pedantic(run_policy, args=(policy_name,), rounds=1, iterations=1)
    assert result.row_count == SCALE["rows"]
    assert not has_duplicates(result)
    benchmark.extra_info["completion_s"] = round(result.completion_time, 1)
    benchmark.extra_info["index_lookups"] = result.total_index_lookups()
    benchmark.extra_info["results_at_20s"] = result.results_at(20.0)


def test_benefit_policy_dominates_naive_early(benchmark):
    """The benefit policy's early output is at least the naive policy's."""
    def run_pair():
        return run_policy("benefit"), run_policy("naive")

    benefit, naive = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert benefit.results_at(20.0) >= naive.results_at(20.0) * 0.95
    assert benefit.completion_time <= naive.completion_time * 1.05
    benchmark.extra_info["results_at_20s"] = {
        "benefit": benefit.results_at(20.0),
        "naive": naive.results_at(20.0),
    }
