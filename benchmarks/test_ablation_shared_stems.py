"""Ablation: SteM sharing across concurrent queries (paper §2.1.4).

The paper argues that decoupled join state is the natural unit of sharing —
the continuous-query systems it cites (CACQ, PSoUP) run many queries over
one set of SteMs.  The multi-query engine (`repro.engine.multi`) realises
this: N queries on one simulator, each with its own eddy/constraints/policy,
with one SteM per base table shared by every query that touches the table.

Claims checked here:

* **Per-query correctness is untouched.**  With 8 staggered queries over
  shared SteMs, every query's result set is byte-identical to the same
  query run alone (``execute``), and to the same admission run alone in a
  one-admission engine of its own, arrival time kept.
* **Sharing saves build work.**  The fleet performs one table's worth of
  SteM insertions regardless of how many queries read the table; the
  queries run alone pay per query.  The SteM build counters assert this
  directly.
* **Sharing saves probe work downstream.**  Queries arriving after a shared
  SteM seals answer their probes entirely from shared state: they issue
  (strictly) fewer index-AM lookups than when each runs alone.
"""

from __future__ import annotations

from repro.bench.workloads import staggered_fleet_workload
from repro.engine.api import execute
from repro.engine.multi import run_multi
from tests.helpers import shared_tables_mixed_workload

#: Eight concurrent queries, staggered arrivals, varied selection cutoffs.
FLEET_PARAMS = dict(n_queries=8, stagger=4.0, rows=250, policy="naive")


def result_identity(result):
    """Canonical identity of a result set (order-insensitive)."""
    return result.canonical_identities()


def run_alone(workload) -> dict:
    """Each admission in a one-admission engine of its own, by query id."""
    return {
        admission.query_id: run_multi([admission], workload.catalog)
        for admission in workload.admissions
    }


def alone_total(runs: dict, counter: str) -> int:
    return sum(run.stem_totals[counter] for run in runs.values())


def test_shared_stems_byte_identical_with_fewer_builds(benchmark):
    """8 staggered queries: shared == alone, at ~1/8 the inserts."""
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        rounds=1,
        iterations=1,
    )
    alone_runs = run_alone(workload)

    assert len(shared.results) == FLEET_PARAMS["n_queries"]
    for admission in workload.admissions:
        alone = execute(
            admission.query, workload.catalog, policy=workload.parameters["policy"]
        )
        identity = result_identity(alone)
        assert result_identity(shared[admission.query_id]) == identity
        assert result_identity(alone_runs[admission.query_id][admission.query_id]) == identity
        # Outputs are stamped with the query they belong to.
        assert all(
            tuple_.query_id == admission.query_id
            for tuple_ in shared[admission.query_id].tuples
        )

    # The sharing win, on the SteMs' own counters: strictly fewer build
    # operations that actually insert rows (and maintain indexes).
    alone_insertions = alone_total(alone_runs, "insertions")
    assert shared.stem_totals["insertions"] < alone_insertions
    # One table's worth per table, however many queries read it: R and T
    # rows are inserted once each.
    assert shared.stem_totals["insertions"] == 2 * FLEET_PARAMS["rows"]
    assert alone_insertions == 2 * FLEET_PARAMS["rows"] * FLEET_PARAMS["n_queries"]
    # Cross-query duplicates were absorbed, not re-inserted.
    assert shared.stem_totals["duplicates"] > alone_total(alone_runs, "duplicates")

    benchmark.extra_info["shared_insertions"] = shared.stem_totals["insertions"]
    benchmark.extra_info["alone_insertions"] = alone_insertions
    benchmark.extra_info["duplicates_absorbed"] = shared.stem_totals["duplicates"]


def test_shared_stems_cut_index_lookups_for_late_arrivals(benchmark):
    """Queries admitted after the SteMs seal probe shared state, not AMs."""
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        rounds=1,
        iterations=1,
    )
    alone_runs = run_alone(workload)

    def lookups(results):
        return sum(result.total_index_lookups() for result in results)

    shared_lookups = lookups(shared.results.values())
    alone_lookups = lookups(run[query_id] for query_id, run in alone_runs.items())
    assert shared_lookups < alone_lookups
    # The last admission arrives long after both scans completed once: its
    # probes are answered entirely from the sealed shared SteMs.
    last = workload.admissions[-1].query_id
    assert shared[last].total_index_lookups() == 0
    assert shared[last].row_count == alone_runs[last][last].row_count

    benchmark.extra_info["shared_lookups"] = shared_lookups
    benchmark.extra_info["alone_lookups"] = alone_lookups


def test_mixed_table_sets_share_per_table(benchmark):
    """Partially overlapping queries share exactly the tables they touch."""
    workload = shared_tables_mixed_workload(rows=200)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        rounds=1,
        iterations=1,
    )
    alone_runs = run_alone(workload)
    for admission in workload.admissions:
        alone = execute(
            admission.query, workload.catalog, policy=workload.parameters["policy"]
        )
        assert result_identity(shared[admission.query_id]) == result_identity(alone)
        assert result_identity(alone_runs[admission.query_id][admission.query_id]) == result_identity(alone)
    # R is read by all three queries, S and T by two each: sharing keeps one
    # SteM per table (3 total), the runs alone build one per reference (7).
    assert set(shared.stem_stats) == {"stem:R", "stem:S", "stem:T"}
    alone_stems = sum(len(run.stem_stats) for run in alone_runs.values())
    assert alone_stems == 7
    assert shared.stem_totals["insertions"] < alone_total(alone_runs, "insertions")
    benchmark.extra_info["shared_stems"] = len(shared.stem_stats)
    benchmark.extra_info["alone_stems"] = alone_stems
