"""The eddy-with-join-modules engine: paper Figure 1(b).

This is the architecture of the original eddy paper [Avnur & Hellerstein
2000], reproduced as the baseline the SteM architecture is measured against:
the eddy routes tuples between *encapsulated* join modules (symmetric hash
joins, caching index joins) whose internal state it cannot see.  Access
methods, the simulator, and the cost model are shared with the SteM engine so
the comparison isolates the architectural difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExecutionError, QueryError
from repro.core.constraints import Destination, RoutePlan
from repro.core.costs import CostModel
from repro.core.eddy import Eddy
from repro.core.modules.access import ScanAMModule
from repro.core.modules.base import Module
from repro.core.modules.joinmodule import IndexJoinModule, SymmetricHashJoinModule
from repro.core.modules.selection import SelectionModule
from repro.core.policies import NaivePolicy, RoutingPolicy, make_policy
from repro.core.tuples import QTuple, install_id_allocator
from repro.engine.results import ExecutionResult, Series
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class JoinSpec:
    """Specification of one encapsulated join module in the plan.

    Attributes:
        kind: ``"shj"`` (symmetric hash join) or ``"index"`` (caching index
            join on the right/inner alias).
        left: aliases of the module's left input (a base alias, or the
            accumulated span of the joins below it in a left-deep plan).
        right: the alias joined in by this module.
        index_columns: bind columns of the inner index (``kind="index"``).
        lookup_latency: per-lookup latency of the inner index.
        queue_capacity: bound on the module's input queue.
    """

    kind: str
    left: tuple[str, ...]
    right: str
    index_columns: tuple[str, ...] = ()
    lookup_latency: float | None = None
    queue_capacity: int | None = None


def default_join_plan(query: Query, catalog: Catalog) -> list[JoinSpec]:
    """A left-deep plan over the FROM-clause order.

    Each step joins the next alias to everything joined so far, using a
    symmetric hash join when the next table has a scan access method and a
    caching index join otherwise (mirroring what a traditional optimizer
    would be forced to pick).
    """
    aliases = list(query.alias_order)
    specs: list[JoinSpec] = []
    done: list[str] = [aliases[0]]
    for alias in aliases[1:]:
        table = query.table_of(alias)
        if catalog.has_scan(table):
            specs.append(JoinSpec(kind="shj", left=tuple(done), right=alias))
        else:
            indexes = catalog.indexes(table)
            if not indexes:
                raise QueryError(
                    f"table {table!r} has neither scan nor index access methods"
                )
            index = indexes[0]
            specs.append(
                JoinSpec(
                    kind="index",
                    left=tuple(done),
                    right=alias,
                    index_columns=tuple(index.columns),
                    lookup_latency=index.latency,
                )
            )
        done.append(alias)
    return specs


class JoinPlanResolver:
    """Destination resolver for the join-module architecture.

    Like the :class:`~repro.core.constraints.ConstraintChecker`, it runs on
    the query's compiled :class:`~repro.query.layout.PlanLayout`: selection
    eligibility and output readiness are mask comparisons over the bitmask
    TupleState rather than frozenset algebra.
    """

    def __init__(
        self,
        query: Query,
        join_modules: Sequence[Module],
        selections: Sequence[SelectionModule],
        layout: PlanLayout | None = None,
    ):
        self.query = query
        self.join_modules = list(join_modules)
        self.selections = list(selections)
        self.layout = layout if layout is not None else PlanLayout(query)
        self._selection_table = self.layout.selection_entries(self.selections)

    def destinations(self, tuple_: QTuple) -> list[Destination]:
        if tuple_.layout is not self.layout:
            tuple_.bind_layout(self.layout)
        result: list[Destination] = []
        spanned = tuple_.spanned_mask
        done = tuple_.done_mask
        for module, done_bit, required_mask in self._selection_table:
            if (
                not done & done_bit
                and not required_mask & ~spanned
                and tuple_.visit_count(module.name) == 0
            ):
                result.append(Destination(module, "select", None, required=True))
        for module in self.join_modules:
            if tuple_.visit_count(module.name) > 0:
                continue
            if isinstance(module, SymmetricHashJoinModule):
                if module.accepts(tuple_):
                    result.append(Destination(module, "probe", None, required=True))
            elif isinstance(module, IndexJoinModule):
                if tuple_.aliases == module.outer_aliases:
                    result.append(Destination(module, "probe", None, required=True))
        return result

    def ready_for_output(self, tuple_: QTuple) -> bool:
        if tuple_.failed:
            return False
        if tuple_.layout is not self.layout:
            tuple_.bind_layout(self.layout)
        return self.layout.is_complete(tuple_.spanned_mask, tuple_.done_mask)

    def route_plan(self, signature: tuple, exemplar: QTuple) -> RoutePlan:
        """A fresh plan per decision: this resolver keeps no signature cache."""
        return RoutePlan(self, exemplar)


class EddyJoinsEngine:
    """Builds and runs the eddy-over-join-modules baseline.

    Args:
        query: the query (object or SQL text).
        catalog: tables and access methods.
        plan: join-module plan; defaults to :func:`default_join_plan`.
        policy: routing policy (the default naive policy reproduces the
            original architecture, whose only freedom is module order).
        cost_model: virtual-time cost model.
        batch_size: ready tuples drained per eddy routing event (1 =
            per-tuple routing; >1 enables signature-batched routing).
        trace: optional :class:`TraceLog` recording route/output/retire
            events.
    """

    def __init__(
        self,
        query: Query | str,
        catalog: Catalog,
        plan: Sequence[JoinSpec] | None = None,
        policy: RoutingPolicy | str | None = None,
        cost_model: CostModel | None = None,
        batch_size: int = 1,
        trace: TraceLog | None = None,
    ):
        self.query = parse_query(query) if isinstance(query, str) else query
        self.catalog = catalog
        self.costs = cost_model or CostModel()
        if policy is None:
            self.policy: RoutingPolicy = NaivePolicy()
        elif isinstance(policy, str):
            self.policy = make_policy(policy)
        else:
            self.policy = policy
        self.plan = list(plan) if plan is not None else default_join_plan(self.query, catalog)
        self.layout = PlanLayout(self.query)
        self.simulator = Simulator()
        self.eddy = Eddy(
            self.simulator,
            self.policy,
            cost_model=self.costs,
            batch_size=batch_size,
            trace=trace,
            layout=self.layout,
        )
        if trace is not None:
            trace.attach_layout(self.layout)
        self._index_join_modules: list[IndexJoinModule] = []
        self._build_modules()

    def _build_modules(self) -> None:
        query, catalog = self.query, self.catalog
        inner_aliases = {spec.right for spec in self.plan if spec.kind == "index"}
        # Selection modules.
        for predicate in query.selection_predicates:
            self.eddy.register_selection(
                SelectionModule(predicate, cost=self.costs.selection_cost)
            )
        # Scan access modules for every streamed alias.
        for ref in query.tables:
            if ref.alias in inner_aliases:
                continue
            scans = catalog.scans(ref.table)
            if not scans:
                raise ExecutionError(
                    f"alias {ref.alias!r} must be streamed but table "
                    f"{ref.table!r} has no scan access method"
                )
            table = catalog.table(ref.table)
            self.eddy.register_scan_am(
                ref.alias, ScanAMModule(scans[0], table, ref.alias)
            )
        # Join modules.
        for position, spec in enumerate(self.plan):
            predicates = query.predicates_between(spec.left, spec.right)
            if spec.kind == "shj":
                module: Module = SymmetricHashJoinModule(
                    name=f"join:shj:{position}:{spec.right}",
                    predicates=predicates,
                    left_aliases=spec.left,
                    right_aliases=(spec.right,),
                    cost_per_tuple=self.costs.join_probe_cost,
                    queue_capacity=spec.queue_capacity,
                )
            elif spec.kind == "index":
                table = catalog.table(query.table_of(spec.right))
                latency = spec.lookup_latency
                if latency is None:
                    latency = self.costs.index_lookup_latency
                columns = spec.index_columns
                if not columns:
                    indexes = catalog.indexes(table.name)
                    if not indexes:
                        raise ExecutionError(
                            f"no index access method on {table.name!r} for an "
                            "index join module"
                        )
                    columns = tuple(indexes[0].columns)
                module = IndexJoinModule(
                    name=f"join:index:{position}:{spec.right}",
                    predicates=predicates,
                    outer_aliases=spec.left,
                    inner_alias=spec.right,
                    inner_table=table,
                    bind_columns=columns,
                    lookup_latency=latency,
                    cache_hit_cost=self.costs.join_probe_cost,
                    queue_capacity=spec.queue_capacity,
                )
                self._index_join_modules.append(module)
            else:
                raise ExecutionError(f"unknown join module kind {spec.kind!r}")
            self.eddy.register_join_module(module)
        resolver = JoinPlanResolver(
            query, self.eddy.join_modules, self.eddy.selections, layout=self.layout
        )
        self.eddy.set_resolver(resolver)

    def run(self, until: float | None = None) -> ExecutionResult:
        """Execute the query and collect metrics."""
        install_id_allocator()
        final_time = self.eddy.run(until=until)
        index_series = {
            module.name: Series.from_points(module.lookup_series, name=module.name)
            for module in self._index_join_modules
        }
        module_stats = {
            name: dict(module.stats) for name, module in self.eddy.modules.items()
        }
        from repro.engine.stems_engine import _partial_series

        return ExecutionResult(
            engine="eddy-joins",
            query_name=self.query.name,
            tuples=self.eddy.result_tuples,
            output_series=Series.from_points(self.eddy.output_series(), name="results"),
            completion_time=self.eddy.completion_time,
            final_time=final_time,
            index_probe_series=index_series,
            partial_series=_partial_series(self.eddy),
            module_stats=module_stats,
            eddy_stats=dict(self.eddy.stats),
        )


def run_eddy_joins(
    query: Query | str,
    catalog: Catalog,
    plan: Sequence[JoinSpec] | None = None,
    policy: RoutingPolicy | str | None = None,
    cost_model: CostModel | None = None,
    until: float | None = None,
    batch_size: int = 1,
    trace: TraceLog | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build an :class:`EddyJoinsEngine` and run it."""
    engine = EddyJoinsEngine(
        query,
        catalog,
        plan=plan,
        policy=policy,
        cost_model=cost_model,
        batch_size=batch_size,
        trace=trace,
    )
    return engine.run(until=until)
