"""The SteM execution engine: paper Figure 1(c).

Query instantiation follows paper section 2.2 exactly:

1. validate the query against the sources' bind-field constraints
   (:func:`repro.query.binding.validate_bindings`);
2. create an access module for *every* access method that could possibly be
   used (all scans, all bindable indexes — they run competitively);
3. create a selection module for every selection predicate;
4. create a SteM on every base table in the query (one per alias);
5. seed the scans.

The eddy then routes tuples under the Table 2 constraints with whatever
routing policy the caller selects.

The instantiation and metric-collection steps are shared with the
multi-query engine (:mod:`repro.engine.multi`), which runs the same steps
once per admitted query on one simulator, swapping the SteM factory so that
SteMs are drawn from a shared :class:`~repro.core.stem_registry.SteMRegistry`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.aggregates import AggregateModule
from repro.core.constraints import ConstraintChecker
from repro.errors import QueryError
from repro.core.costs import CostModel
from repro.core.eddy import Eddy
from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.policies import RoutingPolicy, make_policy
from repro.core.stem import SteM, make_eviction_policy
from repro.core.tuples import install_id_allocator
from repro.engine.results import ExecutionResult, Series
from repro.query.binding import validate_bindings
from repro.query.joingraph import JoinGraph
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.query import Query, TableRef
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog, IndexSpec, ScanSpec

#: Factory producing the SteM module for one FROM-clause entry.  The
#: single-query engine builds a private SteM per alias; the multi-query
#: engine substitutes a factory drawing shared SteMs from its registry.
SteMModuleFactory = Callable[[TableRef, Query], SteMModule]

#: Factory producing the aggregate module of a GROUP BY query, given the
#: query and the SteM module of its single alias.  The single-query engine
#: builds a private :class:`AggregateModule`; the multi-query engine
#: substitutes a factory drawing shared modules from its
#: :class:`~repro.core.aggregates.AggregateRegistry`.
AggregateModuleFactory = Callable[[Query, SteMModule], AggregateModule]


def _validate_aggregate_columns(query: Query, catalog: Catalog) -> None:
    """Reject aggregate queries naming columns their table does not have.

    Listener callbacks run deep inside the build path; a typo must fail at
    admission, not as an exception out of the first build.
    """
    known = catalog.table(query.tables[0].table).schema.names
    for column in query.group_by:
        if column.column not in known:
            raise QueryError(
                f"GROUP BY column {column} is not a column of "
                f"{query.tables[0].table!r} (columns: {list(known)})"
            )
    for spec in query.aggregates:
        if spec.column is not None and spec.column.column not in known:
            raise QueryError(
                f"aggregate {spec.label} names no column of "
                f"{query.tables[0].table!r} (columns: {list(known)})"
            )


def make_private_aggregate_module(
    query: Query, stem_module: SteMModule
) -> AggregateModule:
    """A private aggregate module listening on the query's own SteM."""
    return AggregateModule(
        name=f"aggregate:{query.aggregate_alias}",
        stem=stem_module.stem,
        alias=query.aggregate_alias,
        group_by=query.group_by,
        aggregates=query.aggregates,
        predicates=query.predicates,
    )


def instantiate_stems_query(
    query: Query,
    catalog: Catalog,
    eddy: Eddy,
    costs: CostModel,
    make_stem_module: SteMModuleFactory,
    make_aggregate_module: AggregateModuleFactory | None = None,
) -> ConstraintChecker:
    """Wire one query's modules onto an eddy (paper §2.2's five steps).

    Returns the :class:`ConstraintChecker` installed as the eddy's
    destination resolver.  As a compilation step the query's
    :class:`~repro.query.layout.PlanLayout` — the dense alias/predicate bit
    assignment the bitmask TupleState runs on — is built here and threaded
    through the eddy, the checker, and the trace.
    """
    binding_plan = validate_bindings(query, catalog)
    join_graph = JoinGraph.from_query(query)
    layout = PlanLayout(query, join_graph)
    eddy.layout = layout
    if eddy.trace is not None:
        eddy.trace.attach_layout(layout)
    # SteMs: one module per alias (the factory decides whether the backing
    # SteM is private or shared).
    for ref in query.tables:
        eddy.register_stem(ref.alias, make_stem_module(ref, query))
    # Aggregates: a GROUP BY query additionally hangs an AggregateModule off
    # its (single) SteM's build/evict listeners — maintenance runs above the
    # eddy, so it needs no routing constraints and no done-bits.
    if query.is_aggregate:
        _validate_aggregate_columns(query, catalog)
        stem_module = eddy.stems[query.aggregate_alias]
        factory = make_aggregate_module or make_private_aggregate_module
        eddy.aggregate_module = factory(query, stem_module)
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


def make_private_stem_module(
    ref: TableRef,
    query: Query,
    costs: CostModel,
    max_size: int | None = None,
    eviction: str | None = None,
    window: float | None = None,
) -> SteMModule:
    """A private SteM (and its module) for one FROM-clause entry.

    One SteM per alias: a table referenced under several aliases gets one
    SteM per alias (see DESIGN.md for the self-join note).  Used by the
    single-query engine for every alias and by the multi-query engine for
    self-join aliases and its private-SteM ablation baseline — both must
    instantiate identically or the baselines stop being comparable.
    ``eviction``/``window`` select a named eviction policy (the multi
    engine forwards its registry-level configuration so private SteMs honour
    the same bound); the default keeps count-FIFO iff ``max_size`` is set.
    """
    stem = SteM(
        table=ref.table,
        aliases=(ref.alias,),
        join_columns=query.join_columns_of(ref.alias),
        max_size=max_size,
        eviction=make_eviction_policy(eviction, max_size=max_size, window=window),
        name=f"stem:{ref.alias}",
    )
    return SteMModule(
        stem,
        query.predicates,
        build_cost=costs.stem_build_cost,
        probe_cost=costs.stem_probe_cost,
    )


def collect_stems_result(
    eddy: Eddy,
    query: Query,
    final_time: float,
    engine: str = "stems",
    query_id: str = "",
) -> ExecutionResult:
    """Collect one eddy's outputs and metrics into an :class:`ExecutionResult`."""
    index_series: dict[str, Series] = {}
    for ams in eddy.index_ams.values():
        for am in ams:
            index_series[am.name] = Series.from_points(am.lookup_series, name=am.name)
    module_stats = {
        name: dict(module.stats) for name, module in eddy.modules.items()
    }
    resolver = eddy.resolver
    if isinstance(resolver, ConstraintChecker):
        module_stats["destination-cache"] = dict(resolver.cache_stats)
    aggregate_rows = None
    aggregate_labels: tuple[str, ...] = ()
    aggregate = eddy.aggregate_module
    if aggregate is not None:
        aggregate_rows = tuple(aggregate.result_rows())
        aggregate_labels = query.aggregate_labels
        module_stats[aggregate.name] = aggregate.stats_snapshot()
    return ExecutionResult(
        engine=engine,
        query_name=query.name,
        query_id=query_id,
        tuples=eddy.result_tuples,
        output_series=Series(eddy.output_times, name="results"),
        completion_time=eddy.completion_time,
        final_time=final_time,
        index_probe_series=index_series,
        partial_series=_partial_series(eddy),
        module_stats=module_stats,
        eddy_stats=dict(eddy.stats),
        aggregate_rows=aggregate_rows,
        aggregate_labels=aggregate_labels,
    )


class StemsEngine:
    """Builds and runs the eddy + SteMs architecture for one query.

    Args:
        query: the query (a :class:`Query` or SQL text).
        catalog: tables and access-method declarations.
        policy: a routing policy instance or name (default ``"benefit"``).
        cost_model: virtual-time cost model.
        strict_constraints: validate every routing decision (slower).
        stem_max_size: optional SteM size bound (sliding-window eviction).
        stem_eviction: named eviction policy (``"count"``,
            ``"time-window"``, ``"reference-window"``) bounding each SteM;
            None keeps count-FIFO iff ``stem_max_size`` is set.
        stem_window: build-timestamp window width for
            ``stem_eviction="time-window"``.
        batch_size: ready tuples drained per eddy routing event (1 =
            per-tuple routing; >1 enables signature-batched routing).
        trace: optional :class:`TraceLog` recording route/output/retire
            events (identical across identical runs; see
            ``tests/engine/test_determinism.py``).
    """

    def __init__(
        self,
        query: Query | str,
        catalog: Catalog,
        policy: RoutingPolicy | str = "benefit",
        cost_model: CostModel | None = None,
        strict_constraints: bool = False,
        stem_max_size: int | None = None,
        stem_eviction: str | None = None,
        stem_window: float | None = None,
        preferences: Sequence = (),
        batch_size: int = 1,
        trace: TraceLog | None = None,
    ):
        self.query = parse_query(query) if isinstance(query, str) else query
        self.catalog = catalog
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.costs = cost_model or CostModel()
        self.strict_constraints = strict_constraints
        self.stem_max_size = stem_max_size
        self.stem_eviction = stem_eviction
        self.stem_window = stem_window

        self.simulator = Simulator()
        self.eddy = Eddy(
            self.simulator,
            self.policy,
            cost_model=self.costs,
            strict_constraints=strict_constraints,
            batch_size=batch_size,
            trace=trace,
        )
        self.eddy.preferences = list(preferences)
        instantiate_stems_query(
            self.query, catalog, self.eddy, self.costs, self._make_stem_module
        )

    # -- construction -----------------------------------------------------------

    @property
    def layout(self) -> PlanLayout:
        """The query's compiled :class:`PlanLayout` (shared with the eddy)."""
        return self.eddy.layout

    def _make_stem_module(self, ref: TableRef, query: Query) -> SteMModule:
        return make_private_stem_module(
            ref,
            query,
            self.costs,
            max_size=self.stem_max_size,
            eviction=self.stem_eviction,
            window=self.stem_window,
        )

    # -- execution ---------------------------------------------------------------

    def run(self, until: float | None = None) -> ExecutionResult:
        """Execute the query and collect metrics."""
        install_id_allocator()
        final_time = self.eddy.run(until=until)
        return collect_stems_result(self.eddy, self.query, final_time)


def _partial_series(eddy: Eddy) -> dict[str, Series]:
    """Convert the eddy's partial-result arrival times into cumulative series."""
    series: dict[str, Series] = {}
    for span, times in eddy.partial_series.items():
        key = "+".join(sorted(span))
        # Entry times are appended under the simulator's monotone clock.
        series[key] = Series(times, name=key)
    return series


def run_stems(
    query: Query | str,
    catalog: Catalog,
    policy: RoutingPolicy | str = "benefit",
    cost_model: CostModel | None = None,
    until: float | None = None,
    strict_constraints: bool = False,
    stem_max_size: int | None = None,
    stem_eviction: str | None = None,
    stem_window: float | None = None,
    preferences: Sequence = (),
    batch_size: int = 1,
    trace: TraceLog | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`StemsEngine` and run it."""
    engine = StemsEngine(
        query,
        catalog,
        policy=policy,
        cost_model=cost_model,
        strict_constraints=strict_constraints,
        stem_max_size=stem_max_size,
        stem_eviction=stem_eviction,
        stem_window=stem_window,
        preferences=preferences,
        batch_size=batch_size,
        trace=trace,
    )
    return engine.run(until=until)
