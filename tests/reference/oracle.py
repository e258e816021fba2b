"""The brute-force query oracle.

:func:`evaluate_query_oracle` runs none of the engines' join operators: it
filters each input with the query's selections (:func:`base_input`) and
checks every combination of the filtered inputs against the join
predicates.  A composite is a plain ``{alias: Row}`` dictionary.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.errors import QueryError
from repro.query.predicates import Predicate
from repro.query.query import Query
from repro.storage.catalog import Catalog
from repro.storage.row import Row

#: A composite tuple: one row per alias.
Composite = dict[str, Row]


def merge(left: Composite, right: Composite) -> Composite:
    """Concatenate two composites; their alias sets must be disjoint."""
    overlap = left.keys() & right.keys()
    if overlap:
        raise QueryError(f"cannot merge composites sharing aliases {sorted(overlap)}")
    return {**left, **right}


def satisfies(composite: Composite, predicates: Iterable[Predicate]) -> bool:
    """True if the composite passes every predicate."""
    return all(predicate.evaluate(composite) for predicate in predicates)


def base_input(query: Query, catalog: Catalog, alias: str) -> list[Composite]:
    """The filtered composites of one alias (selections applied)."""
    selections = query.predicates_on(alias)
    composites = []
    for row in catalog.table(query.table_of(alias)):
        composite = {alias: row}
        if satisfies(composite, selections):
            composites.append(composite)
    return composites


def evaluate_query_oracle(query: Query, catalog: Catalog) -> list[Composite]:
    """Brute-force evaluation of a select-project-join query.

    Enumerates the cross product of all (selection-filtered) inputs and keeps
    the combinations passing every predicate.  Exponential, but the test
    workloads are small; this is the ground truth every engine is checked
    against.
    """
    per_alias: list[list[Composite]] = [
        base_input(query, catalog, alias) for alias in query.alias_order
    ]
    join_predicates = [p for p in query.predicates if not p.is_selection]
    results: list[Composite] = []
    for combination in itertools.product(*per_alias):
        composite: Composite = {}
        for part in combination:
            composite = merge(composite, part)
        if satisfies(composite, join_predicates):
            results.append(composite)
    return results
