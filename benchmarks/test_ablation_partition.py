"""Ablation: hash-partitioned SteMs vs the single-shard SteM.

PR 8 splits a SteM's state across N hash shards keyed on the partition
column, routes builds and keyed probes to their owning shard, and fans
unkeyed probes out to every shard with a timestamp-ordered merge.  Two
claims are measured here:

* **Shard-routing prunes keyed probe work.**  When a probe carries an
  equality binding on the partition column but that column has *no*
  secondary index — the regime where the columnar plane must vector-scan
  the whole candidate set — routing confines the scan to one shard:
  4 shards examine ~1/4 of the rows per probe.  The measured probe
  throughput at 4 shards must be at least **1.8x** the single shard's on
  the numpy backend.  (On multi-core hosts the shared worker pool adds
  thread-level overlap on top; the pruning win is what this benchmark
  pins, so it holds on a single core too.)
* **Zero-cost opt-out.**  ``partitioned_stem(shards=1)`` hands back a
  plain :class:`~repro.core.stem.SteM`; its probe loop must be within 5%
  of a directly constructed SteM (it *is* one — the check guards the
  factory against ever interposing a wrapper on the 1-shard path).

Byte-identity — same probe outcomes in the same order at every shard
count — is asserted in-run before anything is timed, and the heavy
staggered fleet re-checks it end-to-end through ``run_multi``.

The measured trajectory is emitted as ``BENCH_partition.json`` under
``$REPRO_BENCH_OUT`` (CI sets it; unset, nothing is written):
``{"benchmark", "backend", "rows", "probes", "shards": {"<n>":
{"best_pass_s", "probes_per_s"}}, "speedup_4_vs_1",
"single_shard_factory_ratio", "trajectory": [...]}``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from conftest import emit_artifact
from repro.bench.workloads import staggered_fleet_workload
from repro.core.partition import PartitionedSteM, partitioned_stem
from repro.core.stem import SteM
from repro.core.tuples import singleton_tuple
from repro.engine.multi import run_multi
from repro.query.predicates import equi_join
from repro.query.probeplan import ProbePlan
from repro.storage.columns import columnar_backend
from repro.storage.row import Row
from repro.storage.schema import Schema

ARTIFACT = "BENCH_partition.json"

R_SCHEMA = Schema.of("key:int", "a:int")
S_SCHEMA = Schema.of("x:int", "y:int")

#: Unindexed-equality microbenchmark: every probe binds S.x (the partition
#: column) but S.x carries no posting lists, so the columnar plane
#: vector-scans the shard's whole candidate set per probe.
ROWS = 240_000
PROBES = 32
SHARD_COUNTS = (1, 2, 4)

#: Heavy-traffic fleet (same shape as the columnar ablation): 6 staggered
#: R⨝T queries over one pair of shared SteMs.
FLEET_PARAMS = dict(n_queries=6, stagger=2.0, rows=200, policy="naive")


def build_probe_situation(shards: int):
    """A SteM (1 shard: plain; N: partitioned on x) with **no** secondary
    index on the probed column, plus keyed probes and their plan."""
    if shards == 1:
        stem = SteM("S", aliases=("S",), join_columns=(), columnar=True)
    else:
        stem = PartitionedSteM(
            "S", aliases=("S",), join_columns=(), partition_column="x",
            shards=shards, columnar=True,
        )
    timestamp = 0.0
    for position in range(ROWS):
        timestamp += 1.0
        stem.build(Row("S", S_SCHEMA, (position, position % 7)), timestamp)
    predicates = [equi_join("R.a", "S.x")]
    probes = []
    for position in range(PROBES):
        probe = singleton_tuple(
            "R", Row("R", R_SCHEMA, (position, (position * 499) % ROWS))
        )
        probe.mark_built("R", timestamp + position + 1.0)
        probes.append(probe)
    plan = ProbePlan.compile(
        predicates, "S", probes[0].components, target_schema=stem.row_schema
    )
    return stem, probes, plan


def probe_pass(stem, probes, plan):
    """One timed pass: outcome identities (for the oracle) and result count."""
    identities = []
    for outcome in stem.probe_batch(probes, plan):
        identities.append(
            tuple(result.identity() for result in outcome.results)
        )
    return identities


def _assert_or_skip(holds: bool, round_ratios, margin: float, message: str) -> None:
    """Fail a wall-clock claim only when the rounds agree that it fails.

    When the per-round paired ratios disagree among themselves by more than
    the margin the claim asserts, something else was using the CPU and the
    run cannot resolve the claim: skip, reporting the spread.  (The
    end-to-end harness in ``benchmarks/e2e`` is the performance gate.)
    """
    if holds:
        return
    spread = max(round_ratios) / min(round_ratios)
    if spread > margin:
        pytest.skip(
            f"{message}, but the rounds disagree by {spread:.2f}x "
            f"(> the asserted {margin}x): contended host, unresolved"
        )
    raise AssertionError(f"{message} (rounds agree within {spread:.2f}x)")


@pytest.mark.skipif(
    columnar_backend() != "numpy",
    reason="shard-pruning throughput claim is for the numpy kernel backend",
)
def test_partition_probe_throughput(benchmark):
    """4 shards >= 1.8x single-shard probe throughput; 1-shard factory free."""
    situations = {n: build_probe_situation(n) for n in SHARD_COUNTS}
    rounds = 7

    # Byte-identity across shard counts before anything is timed.
    oracle = probe_pass(*situations[1])
    assert any(identities for identities in oracle)
    for n in SHARD_COUNTS[1:]:
        assert probe_pass(*situations[n]) == oracle, f"{n}-shard outcomes differ"

    # The factory's 1-shard opt-out is a plain SteM — same class, same loop.
    # Timed interleaved with the direct SteM below so clock drift hits both.
    factory_stem = partitioned_stem(
        "S", aliases=("S",), join_columns=(), columnar=True, shards=1
    )
    assert type(factory_stem) is SteM
    plain_stem, probes, _ = situations[1]
    for position, row in enumerate(plain_stem):
        factory_stem.build(row, float(position + 1))
    # A fresh plan: the compiled plan's index memo is keyed to one SteM,
    # exactly as each engine's per-stem plan cache holds it.
    factory_plan = ProbePlan.compile(
        [equi_join("R.a", "S.x")], "S", probes[0].components,
        target_schema=factory_stem.row_schema,
    )
    probe_pass(factory_stem, probes, factory_plan)  # warm

    best: dict[int, float] = {}
    speedups, factory_ratios = [], []
    trajectory = []
    for round_index in range(rounds):
        elapsed = {}
        for n in SHARD_COUNTS:
            stem, probes, plan = situations[n]
            start = time.perf_counter()
            probe_pass(stem, probes, plan)
            elapsed[n] = time.perf_counter() - start
            best[n] = min(best.get(n, elapsed[n]), elapsed[n])
            trajectory.append(
                {"round": round_index, "shards": n, "pass_s": elapsed[n]}
            )
        start = time.perf_counter()
        probe_pass(factory_stem, probes, factory_plan)
        factory_ratios.append((time.perf_counter() - start) / elapsed[1])
        speedups.append(elapsed[1] / elapsed[4])
    # Each claim is judged on ratios paired within a round: both sides of a
    # ratio ran back to back, so a slow phase of the host hits both.
    speedup = statistics.median(speedups)
    factory_ratio = statistics.median(factory_ratios)
    emit_artifact(
        ARTIFACT,
        {
            "benchmark": "partition_shard_ablation",
            "backend": columnar_backend(),
            "rows": ROWS,
            "probes": PROBES,
            "rounds": rounds,
            "shards": {
                str(n): {
                    "best_pass_s": best[n],
                    "probes_per_s": PROBES / max(best[n], 1e-12),
                }
                for n in SHARD_COUNTS
            },
            "speedup_4_vs_1": speedup,
            "single_shard_factory_ratio": factory_ratio,
            "trajectory": trajectory,
        },
    )
    _assert_or_skip(
        speedup >= 1.8, speedups, 1.8,
        f"4-shard probe throughput only {speedup:.2f}x the single shard",
    )
    _assert_or_skip(
        factory_ratio <= 1.05, factory_ratios, 1.05,
        f"factory shards=1 probe pass {factory_ratio:.3f}x the direct SteM's",
    )

    stem, probes, plan = situations[4]
    benchmark.pedantic(
        probe_pass, args=(stem, probes, plan), rounds=5, iterations=2
    )
    benchmark.extra_info["speedup_4_vs_1"] = round(speedup, 2)
    benchmark.extra_info["single_shard_factory_ratio"] = round(factory_ratio, 3)
    benchmark.extra_info["rows"] = ROWS
    benchmark.extra_info["artifact"] = ARTIFACT


def _run_fleet(shards):
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    return run_multi(
        list(workload.admissions),
        workload.catalog,
        shared_stems=True,
        batch_size=16,
        shards=shards,
    )


def _result_identity(result):
    return {
        query_id: [t.identity() for t in result[query_id].tuples]
        for query_id in result.results
    }


def test_fleet_results_identical_across_shard_counts(benchmark):
    """Heavy shared-SteM fleet: 4 shards == 1 shard, byte for byte, per
    query."""
    sharded = benchmark.pedantic(
        _run_fleet, kwargs=dict(shards=4), rounds=1, iterations=1
    )
    single = _run_fleet(shards=1)
    assert _result_identity(sharded) == _result_identity(single)
    total = sum(len(sharded[q].tuples) for q in sharded.results)
    assert total > 0
    benchmark.extra_info["fleet_results"] = total
