"""The adversarial workload gauntlet, at full scale (BENCH_gauntlet.json).

Runs every hostile scenario family — Zipf-skewed join keys, correlated
predicates whose selectivities flip mid-run, scripted burst/stall sources
with out-of-order delivery, and a heterogeneous query-shape fleet — through
the full oracle-and-scorecard program:

* **Differential correctness**: every (policy × batch size) adaptive run
  produces exactly the static reference's result multiset.  Hostile inputs
  must never change *what* is computed.
* **Adaptivity pays**: on the scenarios with a learnable structure (skew,
  shift) the adaptive policies' regret vs the best static selection order
  must beat naive routing's — the gauntlet's reason to exist.

The full payload (per-scenario differential records, best static plans,
per-policy completion/regret/routing-share series) is written to
``BENCH_gauntlet.json`` under ``$REPRO_BENCH_OUT`` (unset, nothing is
written).
"""

from __future__ import annotations

from conftest import emit_artifact
from repro.bench.adversarial import GAUNTLET_POLICIES, run_gauntlet

ARTIFACT = "BENCH_gauntlet.json"

#: Scenario families whose structure a policy can learn mid-run; the
#: adaptive-beats-naive regret assertion applies to these.
LEARNABLE = ("skew", "shift")


def test_gauntlet_full_scale(benchmark):
    payload = benchmark.pedantic(run_gauntlet, rounds=1, iterations=1)

    # -- correctness: every oracle in every family, every policy/batch ----
    assert payload["all_correct"], "a gauntlet oracle failed; see the payload"
    for name, record in payload["scenarios"].items():
        for check in record["differential"]:
            assert check["ok"], f"{name}: differential failed {check}"

    # -- adaptivity: regret of the adaptive policies vs naive -------------
    for name in LEARNABLE:
        scores = payload["scenarios"][name]["policies"]
        naive_regret = scores["naive"]["regret"]
        assert naive_regret is not None
        for policy in ("lottery", "benefit"):
            regret = scores[policy]["regret"]
            assert regret is not None
            assert regret < naive_regret, (
                f"{name}: {policy} regret {regret:+.2%} did not beat "
                f"naive {naive_regret:+.2%}"
            )
        benchmark.extra_info[f"{name}_naive_regret"] = naive_regret
        benchmark.extra_info[f"{name}_benefit_regret"] = scores["benefit"]["regret"]

    # The shapes fleet has no single static order: regret is undefined but
    # completion and row counts must still be recorded.
    shapes = payload["scenarios"]["shapes"]["policies"]
    for policy in GAUNTLET_POLICIES:
        assert shapes[policy]["completion"] is not None
        assert shapes[policy]["rows"] > 0

    emit_artifact(ARTIFACT, {"gauntlet": payload})
