"""Left-deep join pipelines: the static engine's executor.

:func:`execute_left_deep` runs a query as a left-deep tree of binary joins
(the shape of paper Figure 1(a)), with selections pushed below the joins.
Each step is a :class:`HashJoin` on its equi-join keys, or a
:class:`NestedLoopsJoin` when the step has none (a cross product or a theta
join).  The join order is supplied by the caller (the static engine chooses
it with simple statistics).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.joins.base import Composite, satisfies, singleton
from repro.joins.hash_join import HashJoin
from repro.joins.nested_loops import NestedLoopsJoin
from repro.query.query import Query
from repro.storage.catalog import Catalog


def base_input(query: Query, catalog: Catalog, alias: str) -> list[Composite]:
    """The filtered composites of one alias (selections applied)."""
    table = catalog.table(query.table_of(alias))
    selections = query.predicates_on(alias)
    composites = []
    for row in table:
        composite = singleton(alias, row)
        if satisfies(composite, selections):
            composites.append(composite)
    return composites


def _choose_binary_join(query: Query, done: frozenset[str], alias: str):
    """Instantiate a binary join between the composites built so far and ``alias``."""
    predicates = query.predicates_between(done, alias)
    try:
        return HashJoin(predicates, done, {alias})
    except QueryError:
        # No equi-join predicate (cross product or theta join): fall back.
        return NestedLoopsJoin(predicates, done, {alias})


def execute_left_deep(
    query: Query,
    catalog: Catalog,
    order: Sequence[str] | None = None,
) -> Iterator[Composite]:
    """Execute a query as a left-deep tree of binary joins.

    Args:
        query: the query to execute.
        catalog: the catalog holding the base tables.
        order: join order (alias names); defaults to FROM-clause order.
    """
    aliases = list(order) if order is not None else list(query.alias_order)
    if set(aliases) != set(query.alias_order):
        raise QueryError(
            f"join order {aliases} does not cover the query aliases "
            f"{sorted(query.aliases)}"
        )
    current: Iterable[Composite] = base_input(query, catalog, aliases[0])
    done = frozenset({aliases[0]})
    for alias in aliases[1:]:
        operator = _choose_binary_join(query, done, alias)
        right_input = base_input(query, catalog, alias)
        current = operator.join(list(current), right_input)
        done = done | {alias}
    # Apply any predicates not yet enforced (e.g. cycle-closing predicates
    # whose aliases were joined through other edges).
    remaining = [p for p in query.predicates if not p.is_selection]
    for composite in current:
        if satisfies(composite, remaining):
            yield composite
