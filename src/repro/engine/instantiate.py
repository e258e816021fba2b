"""Query instantiation for the SteM engine: paper Figure 1(c), §2.2.

Every SteM query runs on :class:`~repro.engine.multi.MultiQueryEngine`; a
single query (``execute(engine="stems")``) is a one-admission run.  Each
admission is wired the way §2.2 instantiates a query:

1. check the query against the catalog and the sources' bind-field
   constraints (:func:`repro.query.binding.check_query`, which the engine
   runs before it touches any state, and whose plan it passes in);
2. create an access module for *every* access method that could possibly be
   used (all scans, all bindable indexes — they run competitively);
3. create a selection module for every selection predicate;
4. create a SteM module on every FROM-clause entry (one per alias), over a
   SteM the engine's registry owns;
5. seed the scans.

The eddy then routes tuples under the Table 2 constraints with whatever
routing policy the admission selects.  The engine draws the SteMs (and a
GROUP BY query's aggregate module) from its registries, through the two
factories it passes in.
"""

from __future__ import annotations

from typing import Callable

from repro.core.aggregates import AggregateModule
from repro.core.constraints import ConstraintChecker
from repro.core.eddy import Eddy
from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.engine.results import ExecutionResult, Series, span_series
from repro.query.binding import BindingPlan
from repro.query.query import Query, TableRef
from repro.storage.catalog import Catalog, IndexSpec, ScanSpec


def instantiate_stems_query(
    query: Query,
    binding_plan: BindingPlan,
    catalog: Catalog,
    eddy: Eddy,
    make_stem_module: Callable[[TableRef, Query, str], SteMModule],
    make_aggregate_module: Callable[[Query, SteMModule, str], AggregateModule],
) -> ConstraintChecker:
    """Wire one checked query's modules onto an eddy (paper §2.2's steps
    2-5; ``binding_plan`` is step 1's result, from
    :func:`~repro.query.binding.check_query`).

    The factories build the SteM module of one FROM-clause entry and the
    aggregate module of a GROUP BY query; both are called with the eddy's
    query id as the owner of what they hand out.  Returns the
    :class:`ConstraintChecker` installed as the eddy's destination
    resolver, built on the eddy's :class:`~repro.query.layout.PlanLayout`
    (the dense alias/predicate bit assignment the bitmask TupleState runs
    on) and its join graph.
    """
    costs = eddy.costs
    layout = eddy.layout
    join_graph = layout.join_graph
    # SteMs: one module per alias (the factory draws the backing SteM from
    # the engine's registry).
    for ref in query.tables:
        eddy.register_stem(ref.alias, make_stem_module(ref, query, eddy.query_id))
    # Aggregates: a GROUP BY query additionally attaches an AggregateModule
    # as a reader of its (single) SteM's pending delta — maintenance runs
    # above the eddy, so it needs no routing constraints and no done-bits.
    if query.is_aggregate:
        eddy.aggregate_module = make_aggregate_module(
            query, eddy.stems[query.aggregate_alias], eddy.query_id
        )
    # Selection modules.
    for predicate in query.selection_predicates:
        eddy.register_selection(
            SelectionModule(predicate, cost=costs.selection_cost)
        )
    # Access modules: every access method usable for every alias.
    for ref in query.tables:
        table = catalog.table(ref.table)
        for spec in binding_plan.methods_for(ref.alias):
            if isinstance(spec, ScanSpec):
                eddy.register_scan_am(
                    ref.alias, ScanAMModule(spec, table, ref.alias)
                )
            elif isinstance(spec, IndexSpec):
                eddy.register_index_am(
                    ref.alias,
                    IndexAMModule(
                        spec,
                        table,
                        ref.alias,
                        query.predicates,
                        handle_cost=costs.am_handle_cost,
                    ),
                )
    # Routing constraints.
    checker = ConstraintChecker(
        query=query,
        join_graph=join_graph,
        stems=eddy.stems,
        selections=eddy.selections,
        index_ams=eddy.index_ams,
        scan_aliases=[
            alias for alias in query.alias_order if eddy.has_scan_am(alias)
        ],
        layout=layout,
    )
    eddy.set_resolver(checker)
    return checker


def collect_stems_result(eddy: Eddy, query: Query, final_time: float) -> ExecutionResult:
    """Collect one eddy's outputs and metrics into an :class:`ExecutionResult`."""
    index_series: dict[str, Series] = {}
    for ams in eddy.index_ams.values():
        for am in ams:
            index_series[am.name] = Series.from_points(am.lookup_series, name=am.name)
    module_stats = {
        name: dict(module.stats) for name, module in eddy.modules.items()
    }
    module_stats["destination-cache"] = dict(eddy.resolver.cache_stats)
    aggregate_rows = None
    aggregate_labels: tuple[str, ...] = ()
    aggregate = eddy.aggregate_module
    if aggregate is not None:
        aggregate_rows = tuple(aggregate.result_rows())
        aggregate_labels = query.aggregate_labels
        module_stats[aggregate.name] = aggregate.stats_snapshot()
    return ExecutionResult(
        engine="stems",
        query_name=query.name,
        query_id=eddy.query_id,
        tuples=eddy.result_tuples,
        output_series=Series(eddy.output_times, name="results"),
        completion_time=eddy.completion_time,
        final_time=final_time,
        index_probe_series=index_series,
        partial_series=span_series(eddy.partial_series),
        module_stats=module_stats,
        eddy_stats=dict(eddy.stats),
        aggregate_rows=aggregate_rows,
        aggregate_labels=aggregate_labels,
    )
