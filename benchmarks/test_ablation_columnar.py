"""Ablation: the columnar probe plane vs the compiled row-plane loop.

PR 4's compiled ProbePlans removed the per-candidate dict merge and name
resolution, but the candidate loop itself still runs in the interpreter:
one Python iteration — positional tuple reads, comparison dispatch — per
candidate row.  The columnar plane lowers that loop to whole-batch vector
kernels over the SteM's column mirror: candidate slots come from posting
lists, the plan's comparison/IN checks execute as array operations
producing a selection vector, and Row objects are touched only for the
survivors at the eddy boundary.

Claims checked here:

* **Zero per-candidate Python object allocation in the kernel path.**
  With ``dict`` shadowed by a counting subclass in ``repro.core.stem``, a
  columnar probe over N candidates constructs no dicts (the row plane's
  interpreted loop constructs N).
* **Measured probe-loop speedup.**  On a probe-dominated situation (fat
  posting lists, an equality binding plus an inequality residual), the
  numpy kernel path is at least 2x faster than the compiled row-plane
  loop.
* **Byte-identical execution.**  The heavy staggered multi-query fleet
  produces identical per-query result sets with the columnar plane on and
  off, shared SteMs included.

The measured trajectory is emitted as ``BENCH_columnar.json`` under
``$REPRO_BENCH_OUT`` (CI sets it; unset, nothing is written).
"""

from __future__ import annotations

import time

import pytest

import repro.core.stem as stem_module
from conftest import emit_artifact
from repro.bench.workloads import staggered_fleet_workload
from repro.core.stem import SteM
from repro.core.tuples import singleton_tuple
from repro.engine.multi import run_multi
from repro.query.predicates import Comparison, equi_join
from repro.query.probeplan import ProbePlan
from repro.storage.columns import columnar_backend
from repro.storage.row import Row
from repro.storage.schema import Schema

ARTIFACT = "BENCH_columnar.json"

R_SCHEMA = Schema.of("key:int", "a:int", "b:int")
S_SCHEMA = Schema.of("x:int", "y:int")

#: Heavy-traffic fleet (same shape as the compiled-probe ablation): 6
#: staggered R⨝T queries over one pair of shared SteMs.
FLEET_PARAMS = dict(n_queries=6, stagger=2.0, rows=200, policy="naive")

#: Probe-dominated microbenchmark: every probe lands in a posting list of
#: ``ROWS_PER_KEY`` candidates and must run the residual inequality on each.
DISTINCT_KEYS = 4
ROWS_PER_KEY = 1500
PROBES = 48


def build_probe_situation(columnar: bool):
    """A SteM (columnar or row plane) with fat posting lists, plus probes."""
    stem = SteM("S", aliases=("S",), join_columns=("x",), columnar=columnar)
    total = DISTINCT_KEYS * ROWS_PER_KEY
    timestamp = 0.0
    for position in range(total):
        timestamp += 1.0
        stem.build(Row("S", S_SCHEMA, (position % DISTINCT_KEYS, position)), timestamp)
    predicates = [equi_join("R.a", "S.x"), Comparison("R.b", "<", "S.y")]
    probes = []
    for position in range(PROBES):
        # The residual inequality keeps ~2 of the ROWS_PER_KEY candidates,
        # so the candidate loop (not result construction) dominates.
        probe = singleton_tuple(
            "R",
            Row("R", R_SCHEMA, (position, position % DISTINCT_KEYS, total - 8)),
        )
        probe.mark_built("R", timestamp + position + 1.0)
        probes.append(probe)
    plan = ProbePlan.compile(
        predicates, "S", probes[0].components, target_schema=stem.row_schema
    )
    return stem, probes, plan


class _CountingDict(dict):
    """dict subclass counting constructions (installed over stem.py's
    module-global ``dict`` name, shadowing the builtin)."""

    constructions = 0

    def __init__(self, *args, **kwargs):
        _CountingDict.constructions += 1
        super().__init__(*args, **kwargs)


def _count_stem_dict_constructions(run) -> int:
    _CountingDict.constructions = 0
    stem_module.dict = _CountingDict
    try:
        run()
    finally:
        del stem_module.dict
    return _CountingDict.constructions


def test_kernel_path_allocates_no_per_candidate_objects():
    stem, probes, plan = build_probe_situation(columnar=True)
    assert stem._col is None  # no probe yet: builds alone keep no mirror
    stem.probe_with_plan(probes[1], plan)  # kernel-sized: builds the mirror
    assert stem._col is not None and stem.stats["columnar_probes"] == 1
    probe = probes[0]

    constructed = _count_stem_dict_constructions(
        lambda: stem.probe_with_plan(probe, plan)
    )
    assert constructed == 0, (
        f"columnar probe constructed {constructed} dicts in stem.py; "
        "the kernel path must not allocate per candidate"
    )
    # The bench situation compiles fully: no generic fallback in play.
    assert plan.generic_predicates == ()


@pytest.mark.skipif(
    columnar_backend() != "numpy",
    reason="probe-loop speedup claim is for the numpy kernel backend",
)
def test_columnar_probe_loop_speedup(benchmark):
    """>= 2x wall-clock over the compiled row-plane loop."""
    row_stem, row_probes, row_plan = build_probe_situation(columnar=False)
    col_stem, col_probes, col_plan = build_probe_situation(columnar=True)
    rounds = 5

    def row_pass() -> int:
        total = 0
        for outcome in row_stem.probe_batch(row_probes, row_plan):
            total += len(outcome.results)
        return total

    def columnar_pass() -> int:
        total = 0
        for outcome in col_stem.probe_batch(col_probes, col_plan):
            total += len(outcome.results)
        return total

    # Identical matches, then identical warmed-up passes get timed.
    assert columnar_pass() == row_pass()
    trajectory = []
    row_elapsed = columnar_elapsed = 0.0
    for round_index in range(rounds):
        start = time.perf_counter()
        row_pass()
        row_round = time.perf_counter() - start
        start = time.perf_counter()
        columnar_pass()
        columnar_round = time.perf_counter() - start
        row_elapsed += row_round
        columnar_elapsed += columnar_round
        trajectory.append(
            {
                "round": round_index,
                "row_plane_s": row_round,
                "columnar_s": columnar_round,
                "speedup": row_round / max(columnar_round, 1e-12),
            }
        )

    speedup = row_elapsed / max(columnar_elapsed, 1e-12)
    emit_artifact(
        ARTIFACT,
        {
            "benchmark": "columnar_probe_ablation",
            "backend": columnar_backend(),
            "candidates_per_probe": ROWS_PER_KEY,
            "probes_per_pass": PROBES,
            "rounds": rounds,
            "row_plane_total_s": row_elapsed,
            "columnar_total_s": columnar_elapsed,
            "speedup": speedup,
            "trajectory": trajectory,
        },
    )
    assert speedup >= 2.0, (
        f"columnar probe loop only {speedup:.2f}x faster than the compiled "
        f"row plane ({columnar_elapsed:.4f}s vs {row_elapsed:.4f}s)"
    )

    benchmark.pedantic(columnar_pass, rounds=5, iterations=2)
    benchmark.extra_info["speedup_vs_row_plane"] = round(speedup, 2)
    benchmark.extra_info["candidates_per_probe"] = ROWS_PER_KEY
    benchmark.extra_info["artifact"] = ARTIFACT


def _run_fleet(columnar):
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    return run_multi(
        list(workload.admissions),
        workload.catalog,
        shared_stems=True,
        batch_size=16,
        columnar=columnar,
    )


def _result_identity(result):
    return {
        query_id: [t.identity() for t in result[query_id].tuples]
        for query_id in result.results
    }


def test_fleet_results_identical_columnar_vs_row_plane(benchmark):
    """Heavy shared-SteM fleet: the columnar plane == the row plane, byte
    for byte, per query."""
    columnar = benchmark.pedantic(
        _run_fleet, kwargs=dict(columnar=True), rounds=1, iterations=1
    )
    row_plane = _run_fleet(columnar=False)
    assert _result_identity(columnar) == _result_identity(row_plane)
    total = sum(len(columnar[q].tuples) for q in columnar.results)
    assert total > 0
    benchmark.extra_info["fleet_results"] = total
