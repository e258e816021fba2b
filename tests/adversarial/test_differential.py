"""Differential oracles over every gauntlet family (smoke sizes).

The acceptance bar for the gauntlet: every scenario family — skew,
correlated shift, burst/stall, heterogeneous shapes — must produce results
identical to the static/recompute reference across every policy and batch
size.  These run at smoke sizes; the full-scale run lives in
``benchmarks/test_gauntlet_adversarial.py``.  The compiled and interpreted
probe paths are compared on every family in
``tests/engine/test_probe_path_identity.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.adversarial import (
    GAUNTLET_BATCH_SIZES,
    GAUNTLET_POLICIES,
    differential_check,
    gauntlet_scenarios,
    run_gauntlet,
    static_order_candidates,
)

SCENARIOS = gauntlet_scenarios(smoke=True)
FAMILIES = sorted(SCENARIOS)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("policy", GAUNTLET_POLICIES)
@pytest.mark.parametrize("batch_size", GAUNTLET_BATCH_SIZES)
def test_differential_oracle(name, policy, batch_size):
    """Adaptive execution equals the static reference, result for result."""
    record = differential_check(SCENARIOS[name], policy, batch_size)
    assert record["ok"], (
        f"{name} diverged from the static reference under "
        f"policy={policy} batch={batch_size}: {record}"
    )
    assert record["rows"] > 0, f"{name} produced no rows — the oracle is vacuous"


def test_static_order_candidates_cover_all_permutations():
    workload = SCENARIOS["skew"].build()
    candidates = static_order_candidates(workload.query)
    assert len(candidates) == 2  # two selection predicates -> 2 orders
    assert candidates[0] != candidates[1]
    assert {frozenset(order) for order in candidates} == {
        frozenset(candidates[0])
    }


@pytest.mark.slow
def test_run_gauntlet_smoke_payload():
    """End-to-end smoke run: structure, correctness flags, scorecards."""
    payload = run_gauntlet(smoke=True)
    assert payload["all_correct"] is True
    assert payload["smoke"] is True
    assert sorted(payload["scenarios"]) == FAMILIES
    for name, record in payload["scenarios"].items():
        assert record["all_correct"] is True, f"{name} failed its oracles"
        for policy in GAUNTLET_POLICIES:
            score = record["policies"][policy]
            assert score["completion"] is not None
            if name != "shapes":
                assert score["routing_shares"], f"{name}/{policy}: empty shares"
        if name != "shapes":
            # Single-query families carry a regret metric vs best static.
            assert record["best_static"] is not None
            assert record["policies"]["naive"]["regret"] is not None
