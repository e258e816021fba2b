"""Ablation: continuous-query churn over shared SteMs (paper §3.2/§3.3).

The churn layer turns the multi-query engine into a long-running service:
queries are admitted onto the *live* simulator and retired again, with
per-query state reclaimed and shared SteM state bounded by windowed
eviction.  Claims checked here, under a sustained Poisson
admission/retirement workload:

* **Correctness is untouched by churn.**  Every admitted query's result set
  is byte-identical to its isolated-run reference (the same query run alone
  on a private engine) — dynamic admission, concurrent sharing and
  retirement change *when* work happens, never *what* is produced.
* **Memory stays bounded.**  With time-window eviction configured through
  the registry, shared SteM row counts never exceed the window however
  many queries churn through, while the unbounded configuration grows to
  the full table.
* **Churn is cheap.**  Steady-state throughput (result rows per wall-clock
  second) of the dynamic admit/retire engine stays within 10% of the
  static-fleet engine running the same queries declared up front (median
  of the ratios paired within each round).

The measured numbers are emitted as ``BENCH_churn.json`` under
``$REPRO_BENCH_OUT`` (CI sets it; unset, nothing is written).
"""

from __future__ import annotations

import statistics
import time

from conftest import emit_artifact
from repro.bench.workloads import churn_workload
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine, run_churn

ARTIFACT = "BENCH_churn.json"

#: Workload shape shared by every test: ~8 Poisson arrivals over 30 virtual
#: seconds on a 150-row R⨝T catalog.  ``seed`` fixes the timeline.
CHURN_PARAMS = dict(
    duration=30.0,
    arrival_rate=0.3,
    mean_lifetime=8.0,
    rows=150,
    policy="naive",
    seed=3,
)
#: Time-window width (build-timestamp ticks) for the bounded-memory run.
WINDOW = 120


def reference_workload():
    """The churn timeline with lifetimes long enough to outlive completion.

    Isolated references are only comparable when every query runs to
    quiescence before its retirement fires, so the timeline is rebuilt
    (same seed — identical queries and arrival times) with a lifetime
    floor derived from the isolated runs themselves.
    """
    probe = churn_workload(**CHURN_PARAMS)
    references = {}
    slowest = 0.0
    for admission in probe.admissions:
        alone = execute(admission.query, probe.catalog, policy="naive")
        references[admission.query_id] = alone
        slowest = max(slowest, alone.final_time)
    workload = churn_workload(min_lifetime=slowest * 1.25 + 5.0, **CHURN_PARAMS)
    return workload, references


def test_churn_results_byte_identical_to_isolated_references(benchmark):
    """Sustained admit/retire churn: every query == its isolated run."""
    workload, references = reference_workload()
    result = benchmark.pedantic(
        run_churn,
        args=(workload.events, workload.catalog),
        rounds=1,
        iterations=1,
    )
    assert len(result.results) == workload.parameters["queries"] >= 4
    # Every query was dynamically admitted AND dynamically retired.
    assert set(result.retired) == set(result.query_ids)
    for admission in workload.admissions:
        churned = result[admission.query_id]
        alone = references[admission.query_id]
        assert churned.retired_at is not None
        assert churned.canonical_identities() == alone.canonical_identities()
        assert all(
            tuple_.query_id == admission.query_id for tuple_ in churned.tuples
        )
    # Retirement actually reclaimed the shared state: with every query
    # retired, no SteM survives and each release was accounted.
    stats = result.registry_stats
    assert stats["releases"] == len(result.results)
    assert stats["reclaimed"] >= 2
    benchmark.extra_info["queries"] = len(result.results)
    benchmark.extra_info["stems_reclaimed"] = stats["reclaimed"]
    emit_artifact(
        ARTIFACT,
        {
            "correctness": {
                "queries": len(result.results),
                "retired": len(result.retired),
                "stems_created": stats["stems"],
                "stems_reclaimed": stats["reclaimed"],
                "total_rows": result.total_rows,
            }
        }
    )


def test_windowed_churn_bounds_stem_memory(benchmark):
    """Time-window eviction keeps shared SteM rows <= the window, always."""
    workload, _ = reference_workload()

    def run_windowed():
        engine = MultiQueryEngine(
            [],
            workload.catalog,
            continuous=True,
            stem_eviction="time-window",
            stem_window=WINDOW,
        )
        engine.schedule_churn(workload.events)
        samples: list[tuple[float, dict[str, int]]] = []

        def sample():
            sizes = {
                table: len(stem) for table, stem in engine.registry.stems.items()
            }
            samples.append((engine.simulator.now, sizes))

        horizon = workload.events[-1].time + 60.0
        tick = 1.0
        steps = int(horizon / tick)
        for step in range(1, steps + 1):
            engine.simulator.schedule_at(step * tick, sample, label="monitor")
        return engine.run(), samples

    result, samples = benchmark.pedantic(run_windowed, rounds=1, iterations=1)
    peak = max(
        (size for _, sizes in samples for size in sizes.values()), default=0
    )
    # The bound held at every sample, and was actually exercised (the table
    # outgrows the window, so rows were evicted).
    assert 0 < peak <= WINDOW < CHURN_PARAMS["rows"]
    evictions = sum(
        stats.get("evictions", 0) for stats in result.stem_stats.values()
    )
    assert evictions > 0
    # The unbounded configuration reaches full table size — the window is
    # what keeps memory flat, not the workload.
    unbounded = run_churn(workload.events, workload.catalog)
    unbounded_peak = max(
        stats.get("builds", 0) - stats.get("duplicates", 0)
        for stats in unbounded.stem_stats.values()
    )
    assert unbounded_peak == CHURN_PARAMS["rows"]
    benchmark.extra_info["peak_rows"] = peak
    benchmark.extra_info["window"] = WINDOW
    benchmark.extra_info["evictions"] = evictions
    emit_artifact(
        ARTIFACT,
        {
            "bounded_memory": {
                "window": WINDOW,
                "peak_rows": peak,
                "evictions": evictions,
                "unbounded_peak_rows": unbounded_peak,
                "size_trajectory": [
                    {"time": round(when, 2), **sizes}
                    for when, sizes in samples[:: max(1, len(samples) // 40)]
                ],
            }
        }
    )


def test_churn_throughput_within_10pct_of_static_fleet(benchmark):
    """Dynamic admit/retire costs < 10% steady-state throughput."""
    workload, _ = reference_workload()

    def static_run():
        return MultiQueryEngine(workload.admissions, workload.catalog).run()

    def churn_run():
        return run_churn(workload.events, workload.catalog)

    # Judged on the median of ratios paired within a round: the two
    # configurations run back to back, so a slow phase of the host hits
    # both, and one stray sample on either side moves nothing (each sample
    # is ~0.1 s — a best-of-rounds comparison let a single clean static
    # sample outrun every churn one).  The best rate of each side is
    # reported, not judged.
    rounds = 7
    static_rate = churn_rate = 0.0
    static_result = churn_result = None
    round_ratios = []
    for _ in range(rounds):
        start = time.perf_counter()
        static_result = static_run()
        static = static_result.total_rows / (time.perf_counter() - start)
        start = time.perf_counter()
        churn_result = churn_run()
        churn = churn_result.total_rows / (time.perf_counter() - start)
        static_rate = max(static_rate, static)
        churn_rate = max(churn_rate, churn)
        round_ratios.append(churn / static)
    benchmark.pedantic(churn_run, rounds=1, iterations=1)

    # Same queries, same per-query answers.
    assert churn_result.same_results(static_result)
    ratio = statistics.median(round_ratios)
    print(f"churn/static throughput, median of {rounds} paired rounds: {ratio:.3f}")
    assert ratio > 0.9
    benchmark.extra_info["static_rows_per_s"] = round(static_rate)
    benchmark.extra_info["churn_rows_per_s"] = round(churn_rate)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 3)
    emit_artifact(
        ARTIFACT,
        {
            "throughput": {
                "static_rows_per_s": round(static_rate),
                "churn_rows_per_s": round(churn_rate),
                "ratio": round(ratio, 3),
                "round_ratios": [round(value, 3) for value in round_ratios],
                "total_rows": churn_result.total_rows,
            }
        }
    )
