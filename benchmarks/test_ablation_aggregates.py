"""Ablation: incremental GROUP BY maintenance vs recompute-from-scratch.

An :class:`~repro.core.aggregates.AggregateModule` reads a SteM's pending
delta: the SteM records each insertion as a +delta and each eviction as a
-delta, once for all its readers, a +delta and the -delta of the same row
cancel, and what is left is applied at the next readout (with exact int +
``Fraction`` arithmetic for SUM/AVG and a counter multiset with bounded
recompute for MIN/MAX), so a dashboard readout is a walk of the live group
table instead of a pass over the window.  Two readout cadences over one
count-bounded SteM (sliding window) absorbing a long build stream:

* **Dense: per-readout maintenance.**  A readout every ``READOUT_EVERY``
  builds, far fewer than the window, so nothing cancels: every build
  inserts and every build past the window retracts.  Maintaining the
  deltas costs at least **10x fewer** aggregate row-operations than
  recomputing the aggregate from ``state_entries()`` at every readout
  (exact counts, asserted), and is at least **3x** faster on the wall
  clock (median of the ratios paired within each round).
* **Sparse: cancellation.**  A readout every ``SPARSE_EVERY`` (two
  windows) builds: a row built and evicted between two readouts never
  reaches the group table, so each readout applies one window of
  insertions and one of retractions, whatever the stream length between
  them (exact count, asserted).  The pending delta, sampled after every
  build, peaks at two windows (one of insertions, one of retractions)
  whether one reader or five share it (exact count, asserted).

The dense gate is stated in operations first because the wall-clock ratio
drifts with the kernel: both sides run the same ``AggregateState.insert``,
but the recompute side is *only* that call while the incremental side also
pays the SteM's build/evict floor — so every speed-up of the aggregate
kernel shrinks the ratio while both absolute times improve (6.1x at
0.57 s / 3.44 s per pass before the positional kernel of PR 14, 4.3x at
0.43 s / 1.81 s after it, same host).  The artifact therefore carries both
absolute pass times; read those across PRs, not the ratio.

Byte-identity between the two strategies is asserted at every readout of
both cadences *before* anything is timed — the speedup is only meaningful
if the cheap path returns the same bytes as the reference.

The measured numbers are emitted as ``BENCH_aggregates.json`` under
``$REPRO_BENCH_OUT`` (CI sets it; unset, nothing is written): ``{"benchmark", "window",
"churn_builds", "readouts", "groups", "incremental": {"best_pass_s",
"row_operations"}, "recompute": {"best_pass_s", "row_operations"},
"sparse": {"readout_every", "readouts", "row_operations", "cancelled"},
"pending_delta_peak": {"readers_1", "readers_5"}, "speedup",
"trajectory": [...]}``.
"""

from __future__ import annotations

import statistics
import time

from conftest import emit_artifact
from repro.core.aggregates import AggregateModule, AggregateState
from repro.core.stem import SteM
from repro.query.parser import parse_query
from repro.recovery.codec import canonical_json, encode_value
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.helpers import recompute_aggregate

ARTIFACT = "BENCH_aggregates.json"

R_SCHEMA = Schema.of("key:int", "a:int")

#: Sliding window (count-bounded SteM) and churn stream sizes: the stream
#: overwrites the window many times over, so most builds also evict.
WINDOW = 3_000
CHURN_BUILDS = 18_000
READOUT_EVERY = 150
SPARSE_EVERY = 2 * WINDOW
GROUPS = 120

QUERY = parse_query(
    "SELECT a, count(*), sum(key), avg(key), min(key), max(key) "
    "FROM R GROUP BY a"
)


def churn_rows():
    """The deterministic build stream (key unique, group cyclic + mixed)."""
    rows = []
    for position in range(CHURN_BUILDS):
        group = (position * 7919) % GROUPS
        rows.append(Row("R", R_SCHEMA, (position, group)))
    return rows


def encoded(rows):
    return canonical_json([encode_value(tuple(row)) for row in rows])


def attach_module(stem):
    module = AggregateModule(
        name="aggregate:R",
        stem=stem,
        alias="R",
        group_by=QUERY.group_by,
        aggregates=QUERY.aggregates,
        predicates=QUERY.predicates,
    )
    module.attach()
    return module


def incremental_pass(rows, every=READOUT_EVERY):
    """Churn through a windowed SteM with the module attached; readouts are
    group-table walks.  Returns the per-readout encoded outputs, the
    aggregate row-operations (inserts + retractions) the pass performed and
    the module's stats."""
    stem = SteM(
        "R", aliases=("R",), join_columns=(), max_size=WINDOW
    )
    module = attach_module(stem)
    outputs = []
    for position, row in enumerate(rows):
        stem.build(row, float(position + 1))
        if (position + 1) % every == 0:
            outputs.append(encoded(module.result_rows()))
    module.detach()
    operations = module.state.inserts + module.state.retractions
    return outputs, operations, module.stats_snapshot()


def pending_delta_peak(rows, readers):
    """The sparse cadence with ``readers`` modules on one SteM: the largest
    pending delta (insertions plus retractions) seen after any build."""
    stem = SteM(
        "R", aliases=("R",), join_columns=(), max_size=WINDOW
    )
    modules = [attach_module(stem) for _ in range(readers)]
    peak = 0
    for position, row in enumerate(rows):
        stem.build(row, float(position + 1))
        peak = max(peak, len(stem._delta_in) + len(stem._delta_out))
        if (position + 1) % SPARSE_EVERY == 0:
            modules[position // SPARSE_EVERY % readers].result_rows()
    return peak


def recompute_pass(rows):
    """Same churn, but every readout recomputes from the surviving window
    (one insert per surviving row per readout)."""
    stem = SteM(
        "R", aliases=("R",), join_columns=(), max_size=WINDOW
    )
    outputs = []
    operations = 0
    for position, row in enumerate(rows):
        stem.build(row, float(position + 1))
        if (position + 1) % READOUT_EVERY == 0:
            window = [entry for entry, _ in stem.state_entries()]
            operations += len(window)
            outputs.append(
                encoded(
                    recompute_aggregate(QUERY.group_by, QUERY.aggregates, window)
                )
            )
    return outputs, operations


def test_incremental_vs_recompute_speedup(benchmark):
    """Incremental maintenance: byte-identical, >= 10x fewer row-operations
    and >= 3x faster than recompute-per-readout."""
    rows = churn_rows()

    # Byte-identity at every readout before anything is timed.
    oracle, recompute_operations = recompute_pass(rows)
    assert len(oracle) == CHURN_BUILDS // READOUT_EVERY
    outputs, incremental_operations, _ = incremental_pass(rows)
    assert outputs == oracle

    # The deterministic half of the claim: a row outlives many readouts, so
    # nothing cancels — every build inserts, every build past the window
    # also retracts; recompute re-inserts the whole window at every readout.
    assert incremental_operations == 2 * CHURN_BUILDS - WINDOW
    assert recompute_operations == sum(
        min(built, WINDOW)
        for built in range(READOUT_EVERY, CHURN_BUILDS + 1, READOUT_EVERY)
    )
    assert recompute_operations >= 10 * incremental_operations

    # The sparse cadence: between two readouts the window turns over twice,
    # so the first readout inserts one window, each later one inserts the
    # new window and retracts the old, and everything else cancelled.  Its
    # readouts fall on dense ones, whose recomputes are the oracle.
    sparse_readouts = CHURN_BUILDS // SPARSE_EVERY
    stride = SPARSE_EVERY // READOUT_EVERY
    assert stride * READOUT_EVERY == SPARSE_EVERY
    sparse_outputs, sparse_operations, sparse_stats = incremental_pass(
        rows, SPARSE_EVERY
    )
    assert len(sparse_outputs) == sparse_readouts
    assert sparse_outputs == oracle[stride - 1 :: stride]
    assert sparse_operations == (2 * sparse_readouts - 1) * WINDOW
    assert sparse_stats["cancelled"] == CHURN_BUILDS - sparse_readouts * WINDOW

    # One delta, whatever the readers: after a readout it grows to a window
    # of insertions plus the old window's retractions, and no further.
    delta_peaks = {
        f"readers_{readers}": pending_delta_peak(rows, readers) for readers in (1, 5)
    }
    assert delta_peaks == {"readers_1": 2 * WINDOW, "readers_5": 2 * WINDOW}

    rounds = 3
    best = {"incremental": float("inf"), "recompute": float("inf")}
    trajectory = []
    round_ratios = []
    for round_index in range(rounds):
        elapsed = {}
        for name, strategy in (
            ("incremental", incremental_pass),
            ("recompute", recompute_pass),
        ):
            start = time.perf_counter()
            strategy(rows)
            elapsed[name] = time.perf_counter() - start
            best[name] = min(best[name], elapsed[name])
            trajectory.append(
                {"round": round_index, "strategy": name, "pass_s": elapsed[name]}
            )
        round_ratios.append(elapsed["recompute"] / elapsed["incremental"])

    # Judged on ratios paired within a round: both passes ran back to back,
    # so a slow phase of the host hits both.
    speedup = statistics.median(round_ratios)
    emit_artifact(
        ARTIFACT,
        {
            "benchmark": "aggregates_incremental_ablation",
            "window": WINDOW,
            "churn_builds": CHURN_BUILDS,
            "readouts": CHURN_BUILDS // READOUT_EVERY,
            "groups": GROUPS,
            "rounds": rounds,
            "incremental": {
                "best_pass_s": best["incremental"],
                "row_operations": incremental_operations,
            },
            "recompute": {
                "best_pass_s": best["recompute"],
                "row_operations": recompute_operations,
            },
            "sparse": {
                "readout_every": SPARSE_EVERY,
                "readouts": sparse_readouts,
                "row_operations": sparse_operations,
                "cancelled": sparse_stats["cancelled"],
            },
            "pending_delta_peak": delta_peaks,
            "speedup": speedup,
            "trajectory": trajectory,
        },
    )
    assert speedup >= 3.0, (
        f"incremental maintenance only {speedup:.2f}x recompute "
        f"({best['incremental']:.4f}s vs {best['recompute']:.4f}s per pass)"
    )

    benchmark.pedantic(incremental_pass, args=(rows,), rounds=3, iterations=1)
    benchmark.extra_info["speedup_vs_recompute"] = round(speedup, 2)
    benchmark.extra_info["window"] = WINDOW
    benchmark.extra_info["churn_builds"] = CHURN_BUILDS
    benchmark.extra_info["artifact"] = ARTIFACT
