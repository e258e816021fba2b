"""Experiment runners: one function per paper figure / extension experiment.

Each runner executes every compared approach on the same workload and
returns an :class:`ExperimentReport` holding the per-approach
:class:`~repro.engine.results.ExecutionResult` objects plus the sampled
series the paper plots.  The pytest-benchmark files under ``benchmarks/``
are thin wrappers around these runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policies import BenefitPolicy, NaivePolicy
from repro.engine.api import execute
from repro.engine.joins_engine import JoinSpec
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.engine.results import ExecutionResult, Series
from repro.bench.workloads import (
    Workload,
    competitive_ams_workload,
    cyclic_workload,
    prioritized_workload,
    q1_workload,
    q4_workload,
)


@dataclass
class ExperimentReport:
    """Results of one experiment across all compared approaches."""

    experiment: str
    workload: Workload
    results: dict[str, ExecutionResult] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def output_series(self, approach: str) -> Series:
        """Cumulative results-over-time series of one approach."""
        return self.results[approach].output_series


# ---------------------------------------------------------------------------
# Figure 7: Q1, index-join module vs SteMs.
# ---------------------------------------------------------------------------

def run_figure7(
    r_rows: int = 1000,
    distinct_a: int = 250,
    r_scan_rate: float = 50.0,
    s_index_latency: float = 1.6,
    seed: int = 0,
    batch_size: int = 1,
) -> ExperimentReport:
    """Reproduce Figure 7: results over time and index probes for Q1.

    Approaches:
        ``index-join`` — the eddy routes R tuples to an encapsulated index
        join module on S (paper Figure 5).
        ``stems`` — SteMs on R and S, index AM on S (paper Figure 6).

    ``batch_size`` selects the eddy's routing batch (1 = the paper's
    per-tuple routing) and applies to both approaches.
    """
    make = lambda: q1_workload(r_rows, distinct_a, r_scan_rate, s_index_latency, seed)
    report = ExperimentReport("figure7", make())

    baseline_workload = make()
    baseline_plan = [
        JoinSpec(
            kind="index",
            left=("R",),
            right="S",
            index_columns=("x",),
            lookup_latency=s_index_latency,
        )
    ]
    report.results["index-join"] = execute(
        baseline_workload.query,
        baseline_workload.catalog,
        engine="eddy-joins",
        plan=baseline_plan,
        batch_size=batch_size,
    )

    stems_workload = make()
    report.results["stems"] = execute(
        stems_workload.query,
        stems_workload.catalog,
        policy=NaivePolicy(),
        batch_size=batch_size,
    )
    report.notes["shape"] = (
        "index-join output is convex (head-of-line blocking behind uncached "
        "lookups); stems output is near-linear; both finish at about the same "
        "time and issue about the same number of index probes"
    )
    return report


def index_probe_series(report: ExperimentReport) -> dict[str, Series]:
    """The cumulative index-probe series of every approach in a report."""
    series: dict[str, Series] = {}
    for name, result in report.results.items():
        times = sorted(
            time for s in result.index_probe_series.values() for time in s.times
        )
        series[name] = Series(times, name=name)
    return series


# ---------------------------------------------------------------------------
# Figure 8: Q4, index join vs hash join vs SteM hybrid.
# ---------------------------------------------------------------------------

def run_figure8(
    rows: int = 1000,
    r_scan_rate: float = 17.0,
    t_scan_rate: float = 6.7,
    t_index_latency: float = 0.2,
    seed: int = 0,
    exploration: float = 0.05,
    batch_size: int = 1,
) -> ExperimentReport:
    """Reproduce Figure 8: Q4 with index join, hash join, and SteM hybrid.

    Approaches:
        ``index-join`` — eddy + encapsulated index join module on T.
        ``hash-join`` — eddy + symmetric hash join module over both scans.
        ``hybrid`` — SteMs with both T access methods and the benefit policy,
        which starts index-heavy and drifts to the hash-join behaviour.

    ``batch_size`` selects the eddy's routing batch (1 = the paper's
    per-tuple routing) and applies to all three approaches.
    """
    make = lambda: q4_workload(rows, r_scan_rate, t_scan_rate, t_index_latency, seed)
    report = ExperimentReport("figure8", make())

    index_workload = make()
    report.results["index-join"] = execute(
        index_workload.query,
        index_workload.catalog,
        engine="eddy-joins",
        plan=[
            JoinSpec(
                kind="index",
                left=("R",),
                right="T",
                index_columns=("key",),
                lookup_latency=t_index_latency,
            )
        ],
        batch_size=batch_size,
    )

    hash_workload = make()
    report.results["hash-join"] = execute(
        hash_workload.query,
        hash_workload.catalog,
        engine="eddy-joins",
        plan=[JoinSpec(kind="shj", left=("R",), right="T")],
        batch_size=batch_size,
    )

    hybrid_workload = make()
    report.results["hybrid"] = execute(
        hybrid_workload.query,
        hybrid_workload.catalog,
        policy=BenefitPolicy(exploration=exploration),
        batch_size=batch_size,
    )
    report.notes["shape"] = (
        "index join wins early; hash join wins overall; the hybrid tracks the "
        "better of the two and completes slightly after the hash join"
    )
    return report


# ---------------------------------------------------------------------------
# Extension experiments.
# ---------------------------------------------------------------------------

def run_competitive_ams(
    rows: int = 600,
    slow_stall_at: float = 2.0,
    slow_stall_duration: float = 60.0,
    seed: int = 0,
) -> ExperimentReport:
    """Competitive access methods: one of two scans on R stalls mid-query.

    Approaches:
        ``single-am-flaky`` — only the stalling scan is available.
        ``competitive`` — both scans run; the SteM removes duplicates, so the
        query finishes at the healthy scan's pace with little wasted work.
    """
    workload = competitive_ams_workload(
        rows=rows, slow_stall_at=slow_stall_at,
        slow_stall_duration=slow_stall_duration, seed=seed,
    )
    report = ExperimentReport("competitive-ams", workload)

    # Baseline: a catalog with only the flaky AM.
    flaky_only = competitive_ams_workload(
        rows=rows, slow_stall_at=slow_stall_at,
        slow_stall_duration=slow_stall_duration, seed=seed,
    )
    flaky_catalog = flaky_only.catalog
    # Rebuild a catalog exposing only the flaky scan for R.
    from repro.storage.catalog import Catalog  # local import to avoid cycle noise

    single = Catalog()
    single.add_table(flaky_catalog.table("R"))
    single.add_table(flaky_catalog.table("T"))
    single.add_scan("R", name="R_scan_flaky", rate=50.0,
                    stall_at=slow_stall_at, stall_duration=slow_stall_duration)
    single.add_scan("T", rate=100.0)
    report.results["single-am-flaky"] = execute(
        flaky_only.query, single, policy=NaivePolicy()
    )
    report.results["competitive"] = execute(
        workload.query, workload.catalog, policy=NaivePolicy()
    )
    competitive_result = report.results["competitive"]
    duplicates_absorbed = sum(
        stats.get("duplicates", 0)
        for name, stats in competitive_result.module_stats.items()
        if name.startswith("stem:")
    )
    report.notes["duplicates_absorbed_by_stems"] = str(int(duplicates_absorbed))
    return report


def run_spanning_tree(
    rows: int = 200,
    stall_duration: float = 20.0,
    seed: int = 0,
) -> ExperimentReport:
    """Cyclic query with a stalled source: SteMs vs a fixed spanning tree.

    Approaches:
        ``stems`` — no spanning tree is fixed; the two healthy sources join
        while C stalls, so results flood out the moment C recovers.
        ``static-tree-through-C`` — a join-module plan whose spanning tree
        routes everything through the stalled source, which blocks until C
        recovers and only then starts joining.
    """
    workload = cyclic_workload(rows=rows, stall_duration=stall_duration, seed=seed)
    report = ExperimentReport("spanning-tree", workload)

    report.results["stems"] = execute(
        workload.query, workload.catalog, policy=NaivePolicy()
    )

    tree_workload = cyclic_workload(rows=rows, stall_duration=stall_duration, seed=seed)
    # Spanning tree A--C--B: both joins involve the stalled source C.
    plan = [
        JoinSpec(kind="shj", left=("A",), right="C"),
        JoinSpec(kind="shj", left=("A", "C"), right="B"),
    ]
    report.results["static-tree-through-C"] = execute(
        tree_workload.query, tree_workload.catalog, engine="eddy-joins", plan=plan
    )
    return report


def run_prioritized(
    rows: int = 500,
    priority_fraction: float = 0.1,
    seed: int = 0,
) -> ExperimentReport:
    """Prioritised reordering: user-interesting results should arrive earlier.

    Approaches:
        ``no-priority`` — benefit policy without preference predicates.
        ``prioritized`` — the same policy with a preference on part of R.

    The report's notes record the mean output time of prioritised results
    under both approaches.
    """
    workload = prioritized_workload(rows=rows, priority_fraction=priority_fraction, seed=seed)
    report = ExperimentReport("prioritized", workload)

    plain = prioritized_workload(rows=rows, priority_fraction=priority_fraction, seed=seed)
    report.results["no-priority"] = execute(
        plain.query, plain.catalog, policy=BenefitPolicy()
    )
    admission = QueryAdmission(
        workload.query, policy=BenefitPolicy(), preferences=workload.preferences
    )
    report.results["prioritized"] = (
        MultiQueryEngine([admission], workload.catalog).run()["q0"]
    )
    threshold = workload.parameters["priority_threshold"]
    for name, result in report.results.items():
        times = [
            record_time
            for record_time, tuple_ in zip(result.output_series.times, result.tuples)
            if tuple_.value("R", "a") < threshold
        ]
        mean_time = sum(times) / len(times) if times else float("nan")
        report.notes[f"mean_priority_output_time[{name}]"] = f"{mean_time:.2f}"
    return report
