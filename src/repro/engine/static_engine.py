"""The static-plan engine: paper Figure 1(a).

A traditional, optimize-then-execute engine: selections are pushed down, a
join order is chosen once from simple statistics (smallest estimated
intermediate result first), and the plan runs as a left-deep pipeline
(:func:`repro.joins.pipeline.execute_left_deep`) of hash joins, with a
nested-loops join for a step that has no equi-join key.  Every join runs to
completion before the next starts, and nothing adapts afterwards.  It is

* ``execute(engine="static")`` and the reference the gauntlet's
  differential checks compare the adaptive engines against, and
* the "no adaptivity at all" end of the spectrum in reports.

Because the plan is executed eagerly (each join materialises its output),
the result series is a single step at the modelled completion time: the
classic batch behaviour the paper's online metric penalises.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.tuples import Result, install_id_allocator
from repro.engine.results import ExecutionResult, Series
from repro.joins.pipeline import base_input, execute_left_deep
from repro.query.binding import check_references
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.storage.catalog import Catalog
from repro.storage.statistics import analyze_table, estimate_join_cardinality


def choose_join_order(query: Query, catalog: Catalog) -> list[str]:
    """A greedy join order: start small, add the cheapest neighbour next.

    Uses textbook cardinality estimates from :mod:`repro.storage.statistics`
    — exactly the kind of static decision the adaptive engines avoid.
    """
    stats = {
        ref.alias: analyze_table(catalog.table(ref.table)) for ref in query.tables
    }
    remaining = set(query.alias_order)
    order: list[str] = []
    # Start with the smallest table; a tie goes to the earliest in FROM order.
    first = min(query.alias_order, key=lambda alias: stats[alias].cardinality)
    order.append(first)
    remaining.discard(first)
    while remaining:
        candidates = []
        for alias in sorted(remaining):
            connected = bool(query.predicates_between(order, alias))
            estimate = 0.0
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
            candidates.append((not connected, estimate, alias))
        candidates.sort()
        _, _, chosen = candidates[0]
        order.append(chosen)
        remaining.discard(chosen)
    return order


class StaticEngine:
    """Optimize-once, execute-once engine over a left-deep hash-join pipeline.

    The query's references and types are checked at construction
    (:func:`~repro.query.binding.check_references`); the bind-field
    constraints do not apply, because the plan reads whole tables.
    """

    def __init__(
        self,
        query: Query | str,
        catalog: Catalog,
        order: Sequence[str] | None = None,
    ):
        self.query = parse_query(query) if isinstance(query, str) else query
        check_references(self.query, catalog)
        self.catalog = catalog
        self.order = list(order) if order is not None else choose_join_order(self.query, catalog)

    def run(self, until: float | None = None) -> ExecutionResult:
        """Execute the plan; ``until`` is accepted for interface parity."""
        del until
        install_id_allocator()
        composites = list(execute_left_deep(self.query, self.catalog, order=self.order))
        tuples = [Result(composite) for composite in composites]
        # Model the batch behaviour: every result appears "at the end".
        cost = self._modelled_completion_time(len(composites))
        series = Series.from_points(
            [(cost, len(composites))] if composites else [], name="results"
        )
        return ExecutionResult(
            engine="static",
            query_name=self.query.name,
            tuples=tuples,
            output_series=series,
            completion_time=cost if composites else None,
            final_time=cost,
            module_stats={"plan": {"order": 0.0, "joins": float(len(self.order) - 1)}},
        )

    def _modelled_completion_time(self, result_count: int) -> float:
        """A coarse cost estimate: one unit of work per input and output row."""
        input_rows = sum(
            len(base_input(self.query, self.catalog, alias)) for alias in self.order
        )
        per_row = 2e-4
        return per_row * (input_rows + result_count)


def run_static(
    query: Query | str,
    catalog: Catalog,
    order: Sequence[str] | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`StaticEngine` and run it."""
    return StaticEngine(query, catalog, order=order).run()
