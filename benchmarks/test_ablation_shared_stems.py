"""Ablation: SteM sharing across concurrent queries (paper §2.1.4).

The paper argues that decoupled join state is the natural unit of sharing —
the continuous-query systems it cites (CACQ, PSoUP) run many queries over
one set of SteMs.  The multi-query engine (`repro.engine.multi`) realises
this: N queries on one simulator, each with its own eddy/constraints/policy,
with one SteM per base table shared by every query that touches the table.

Claims checked here:

* **Per-query correctness is untouched.**  With 8 staggered queries over
  shared SteMs, every query's result set is byte-identical to the same
  query run alone on a private engine, and to the private-SteM multi-query
  configuration.
* **Sharing saves build work.**  The shared configuration performs one
  table's worth of SteM insertions regardless of how many queries read the
  table; the private configuration pays per query.  The SteM build counters
  assert this directly.
* **Sharing saves probe work downstream.**  Queries arriving after a shared
  SteM seals answer their probes entirely from shared state: they issue
  (strictly) fewer index-AM lookups than under private SteMs.
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


def test_shared_stems_byte_identical_with_fewer_builds(benchmark):
    """8 staggered queries: shared == private == alone, at ~1/8 the inserts."""
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        kwargs=dict(shared_stems=True),
        rounds=1,
        iterations=1,
    )
    private = run_multi(workload.admissions, workload.catalog, shared_stems=False)

    assert len(shared.results) == FLEET_PARAMS["n_queries"]
    for admission in workload.admissions:
        alone = execute(
            admission.query, workload.catalog, policy=workload.parameters["policy"]
        )
        identity = result_identity(alone)
        assert result_identity(shared[admission.query_id]) == identity
        assert result_identity(private[admission.query_id]) == identity
        # Outputs are stamped with the query they belong to.
        assert all(
            tuple_.query_id == admission.query_id
            for tuple_ in shared[admission.query_id].tuples
        )

    # The sharing win, on the SteMs' own counters: strictly fewer build
    # operations that actually insert rows (and maintain indexes).
    assert shared.stem_totals["insertions"] < private.stem_totals["insertions"]
    # One table's worth per table, however many queries read it: R and T
    # rows are inserted once each.
    assert shared.stem_totals["insertions"] == 2 * FLEET_PARAMS["rows"]
    assert private.stem_totals["insertions"] == (
        2 * FLEET_PARAMS["rows"] * FLEET_PARAMS["n_queries"]
    )
    # Cross-query duplicates were absorbed, not re-inserted.
    assert shared.stem_totals["duplicates"] > private.stem_totals["duplicates"]

    benchmark.extra_info["shared_insertions"] = shared.stem_totals["insertions"]
    benchmark.extra_info["private_insertions"] = private.stem_totals["insertions"]
    benchmark.extra_info["duplicates_absorbed"] = shared.stem_totals["duplicates"]


def test_shared_stems_cut_index_lookups_for_late_arrivals(benchmark):
    """Queries admitted after the SteMs seal probe shared state, not AMs."""
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        kwargs=dict(shared_stems=True),
        rounds=1,
        iterations=1,
    )
    private = run_multi(workload.admissions, workload.catalog, shared_stems=False)

    def lookups(result):
        return sum(
            res.total_index_lookups() for res in result.results.values()
        )

    shared_lookups, private_lookups = lookups(shared), lookups(private)
    assert shared_lookups < private_lookups
    # The last admission arrives long after both scans completed once: its
    # probes are answered entirely from the sealed shared SteMs.
    last = workload.admissions[-1].query_id
    assert shared[last].total_index_lookups() == 0
    assert shared[last].row_count == private[last].row_count

    benchmark.extra_info["shared_lookups"] = shared_lookups
    benchmark.extra_info["private_lookups"] = private_lookups


def test_mixed_table_sets_share_per_table(benchmark):
    """Partially overlapping queries share exactly the tables they touch."""
    workload = shared_tables_mixed_workload(rows=200)
    shared = benchmark.pedantic(
        run_multi,
        args=(workload.admissions, workload.catalog),
        kwargs=dict(shared_stems=True),
        rounds=1,
        iterations=1,
    )
    private = run_multi(workload.admissions, workload.catalog, shared_stems=False)
    for admission in workload.admissions:
        alone = execute(
            admission.query, workload.catalog, policy=workload.parameters["policy"]
        )
        assert result_identity(shared[admission.query_id]) == result_identity(alone)
        assert result_identity(private[admission.query_id]) == result_identity(alone)
    # R is read by all three queries, S and T by two each: sharing keeps one
    # SteM per table (3 total), the private run builds one per reference (7).
    assert set(shared.stem_stats) == {"stem:R", "stem:S", "stem:T"}
    assert len(private.stem_stats) == 7
    assert shared.stem_totals["insertions"] < private.stem_totals["insertions"]
    benchmark.extra_info["shared_stems"] = len(shared.stem_stats)
    benchmark.extra_info["private_stems"] = len(private.stem_stats)
