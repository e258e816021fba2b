"""The eddy-with-join-modules engine: paper Figure 1(b).

This is the architecture of the original eddy paper [Avnur & Hellerstein
2000], reproduced as the baseline the SteM architecture is measured against:
the eddy routes tuples between *encapsulated* join modules (symmetric hash
joins, caching index joins) whose internal state it cannot see.  Access
methods, the simulator, and the cost model are shared with the SteM engine so
the comparison isolates the architectural difference.

An eddy whose module order is fixed is a static plan (paper Figure 1(a)):
``execute(engine="static")`` runs this engine with the naive policy over
the left-deep plan :func:`choose_join_order` picks once from statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExecutionError
from repro.core.constraints import Destination, RoutePlan
from repro.core.eddy import Eddy
from repro.core.modules.access import ScanAMModule
from repro.core.modules.base import Module
from repro.core.modules.joinmodule import IndexJoinModule, SymmetricHashJoinModule
from repro.core.modules.selection import SelectionModule
from repro.core.policies import NaivePolicy, RoutingPolicy, make_policy
from repro.core.tuples import QTuple, install_id_allocator
from repro.engine.config import EngineConfig
from repro.engine.results import ExecutionResult, collect_result
from repro.query.binding import (
    check_query,
    constant_bound_columns,
    index_usable,
    joinable_columns,
)
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.probeplan import compile_bind_sources
from repro.query.query import Query
from repro.sim.latency import index_latency
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog, IndexSpec
from repro.storage.statistics import analyze_table, estimate_join_cardinality


@dataclass(frozen=True)
class JoinSpec:
    """Specification of one encapsulated join module in the plan.

    Attributes:
        kind: ``"shj"`` (symmetric hash join) or ``"index"`` (caching index
            join on the right/inner alias).
        left: aliases of the module's left input (a base alias, or the
            accumulated span of the joins below it in a left-deep plan).
        right: the alias joined in by this module.
        index_columns: bind columns of the inner index (``kind="index"``;
            empty takes the first index the step binds).
        lookup_latency: per-lookup latency of the inner index (the mean:
            the catalog index the step binds gives its latency model and
            seed).
        queue_capacity: bound on the module's input queue.
    """

    kind: str
    left: tuple[str, ...]
    right: str
    index_columns: tuple[str, ...] = ()
    lookup_latency: float | None = None
    queue_capacity: int | None = None


def _bound_index(
    query: Query, catalog: Catalog, done: Sequence[str], alias: str
) -> IndexSpec | None:
    """The first index of ``alias``'s table whose bind columns constants or
    the aliases in ``done`` bind (:func:`~repro.query.binding.validate_bindings`'s rule)."""
    bound = constant_bound_columns(query, alias).keys() | joinable_columns(
        query, alias, frozenset(done)
    )
    for index in catalog.indexes(query.table_of(alias)):
        if index_usable(index, bound):
            return index
    return None


def _join_step(
    query: Query, catalog: Catalog, done: Sequence[str], alias: str
) -> JoinSpec | None:
    """The step joining ``alias`` to ``done``, or None if it cannot join yet.

    A table with a scan joins by a symmetric hash join; any other is the
    inner of an index join, once one of its indexes is bound.
    """
    if catalog.has_scan(query.table_of(alias)):
        return JoinSpec(kind="shj", left=tuple(done), right=alias)
    index = _bound_index(query, catalog, done, alias)
    if index is None:
        return None
    return JoinSpec(
        kind="index",
        left=tuple(done),
        right=alias,
        index_columns=tuple(index.columns),
        lookup_latency=index.latency,
    )


def default_join_plan(query: Query, catalog: Catalog) -> list[JoinSpec]:
    """A left-deep plan over the FROM-clause order.

    Each step joins the next alias to everything joined so far
    (:func:`_join_step`).  The query is checked first
    (:func:`~repro.query.binding.check_query`), so every table has an
    access method.

    Raises:
        ExecutionError: when an alias cannot join the aliases before it in
            FROM order (no scan, and no index they bind).
    """
    check_query(query, catalog)
    aliases = list(query.alias_order)
    specs: list[JoinSpec] = []
    for position, alias in enumerate(aliases[1:], start=1):
        step = _join_step(query, catalog, aliases[:position], alias)
        if step is None:
            raise ExecutionError(
                f"alias {alias!r} cannot join {aliases[:position]} in FROM order: "
                "its table has no scan and none of its indexes is bound"
            )
        specs.append(step)
    return specs


def choose_join_order(query: Query, catalog: Catalog) -> list[JoinSpec]:
    """A static plan: a greedy left-deep order, chosen once from statistics.

    The first alias is the smallest table with a scan (a tie goes to the
    earliest in FROM order); each next one is the joinable alias
    (:func:`_join_step`) connected to the joined ones with the smallest
    textbook cardinality estimate (:mod:`repro.storage.statistics`).  Once
    one alias streams, every alias :func:`~repro.query.binding.check_query`
    accepts becomes joinable in turn.  Raises :class:`ExecutionError` when
    no table of the query has a scan.
    """
    check_query(query, catalog)
    stats = {
        ref.alias: analyze_table(catalog.table(ref.table)) for ref in query.tables
    }
    streamed = [a for a in query.alias_order if catalog.has_scan(query.table_of(a))]
    if not streamed:
        raise ExecutionError(
            "a static plan streams its first alias, and no table of "
            f"{sorted(query.aliases)} has a scan access method"
        )
    order = [min(streamed, key=lambda alias: stats[alias].cardinality)]
    plan: list[JoinSpec] = []
    remaining = set(query.alias_order) - set(order)
    while remaining:
        candidates = []
        for alias in sorted(remaining):
            step = _join_step(query, catalog, order, alias)
            if step is None:
                continue
            connected = bool(query.predicates_between(order, alias))
            for predicate in query.equi_join_predicates:
                own = predicate.column_for(alias)
                if own is None:
                    continue
                other = predicate.other_side(alias)
                if getattr(other, "alias", None) in order:
                    estimate = estimate_join_cardinality(
                        stats[other.alias], other.column, stats[alias], own.column
                    )
                    break
            else:
                estimate = stats[alias].cardinality * 1000.0
            candidates.append((not connected, estimate, alias, step))
        _, _, chosen, step = min(candidates, key=lambda c: c[:3])
        plan.append(step)
        order.append(chosen)
        remaining.discard(chosen)
    return plan


def _check_left_deep(query: Query, plan: Sequence[JoinSpec]) -> None:
    """Refuse a plan that is not one left-deep chain over the query's aliases.

    Each step's left input must be exactly the aliases joined before it and
    its right alias a new one; the last step must span every alias.  Any
    other plan leaves some tuple without a module to complete it, and the
    run would end with no results instead of an error.
    """
    joined = set(plan[0].left) if plan else set(query.alias_order[:1])
    for spec in plan:
        if set(spec.left) != joined or spec.right in joined:
            raise ExecutionError(
                f"join step {spec.left} x {spec.right!r} does not extend the "
                f"aliases joined before it, {sorted(joined)}"
            )
        joined.add(spec.right)
    if joined != set(query.alias_order):
        raise ExecutionError(
            f"the join plan spans {sorted(joined)}, not every alias of the "
            f"query {sorted(query.alias_order)}"
        )


class JoinPlanResolver:
    """Destination resolver for the join-module architecture.

    Like the :class:`~repro.core.constraints.ConstraintChecker`, it runs on
    the query's compiled :class:`~repro.query.layout.PlanLayout`: selection
    eligibility and output readiness are mask comparisons over the bitmask
    TupleState rather than frozenset algebra.
    """

    def __init__(
        self,
        layout: PlanLayout,
        join_modules: Sequence[Module],
        selections: Sequence[SelectionModule],
    ):
        self.layout = layout
        self.join_modules = list(join_modules)
        self.selections = list(selections)
        self._selection_table = self.layout.selection_entries(self.selections)

    def destinations(self, tuple_: QTuple) -> list[Destination]:
        result: list[Destination] = []
        spanned = tuple_.spanned_mask
        done = tuple_.done_mask
        for module, done_bit, required_mask in self._selection_table:
            if (
                not done & done_bit
                and not required_mask & ~spanned
                and not tuple_.visited(module.name)
            ):
                result.append(Destination(module, "select", None, required=True))
        for module in self.join_modules:
            if tuple_.visited(module.name):
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
            Either way the query is checked here, at construction
            (:func:`~repro.query.binding.check_query`), and so is the plan:
            it must be left-deep over every alias (:func:`_check_left_deep`)
            and each index step's bind columns must be bound by an equality
            with the step's outer aliases or with a constant
            (:class:`ExecutionError` otherwise).
        policy: routing policy (the default naive policy reproduces the
            original architecture, whose only freedom is module order).
        config: the run's :class:`~repro.engine.config.EngineConfig`; this
            engine reads its cost model and batch size.
        trace: optional :class:`TraceLog` recording route/output/retire
            events.
    """

    def __init__(
        self,
        query: Query | str,
        catalog: Catalog,
        plan: Sequence[JoinSpec] | None = None,
        policy: RoutingPolicy | str | None = None,
        config: EngineConfig = EngineConfig(),
        trace: TraceLog | None = None,
    ):
        self.query = parse_query(query) if isinstance(query, str) else query
        if plan is None:
            plan = default_join_plan(self.query, catalog)
        else:
            check_query(self.query, catalog)
        self.catalog = catalog
        self.costs = config.cost_model
        if policy is None:
            self.policy: RoutingPolicy = NaivePolicy()
        elif isinstance(policy, str):
            self.policy = make_policy(policy)
        else:
            self.policy = policy
        self.plan = list(plan)
        _check_left_deep(self.query, self.plan)
        self.layout = PlanLayout(self.query)
        self.simulator = Simulator()
        self.eddy = Eddy(
            self.simulator,
            self.policy,
            cost_model=self.costs,
            batch_size=config.batch_size,
            trace=trace,
            layout=self.layout,
        )
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
                    index = _bound_index(query, catalog, spec.left, spec.right)
                    columns = tuple(index.columns) if index is not None else ()
                # An equality selection of the inner binds its index too.
                predicates += tuple(constant_bound_columns(query, spec.right).values())
                if not columns or not all(
                    compile_bind_sources(predicates, spec.right, columns)
                ):
                    raise ExecutionError(
                        f"the index join of {spec.right!r} cannot bind index columns "
                        f"{list(columns)} from {list(spec.left)} or constants"
                    )
                index = next((i for i in catalog.indexes(table.name) if i.columns == columns), None)
                if index is not None:
                    # The index the step binds draws its lookups around the mean.
                    latency = index_latency(latency, index.latency_model, index.latency_seed)
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
            else:
                raise ExecutionError(f"unknown join module kind {spec.kind!r}")
            self.eddy.register_join_module(module)
        self.eddy.resolver = JoinPlanResolver(
            self.layout, self.eddy.join_modules, self.eddy.selections
        )

    def run(self, until: float | None = None) -> ExecutionResult:
        """Execute the query and collect metrics."""
        install_id_allocator()
        final_time = self.eddy.run(until=until)
        return collect_result(self.eddy, "eddy-joins", final_time)
