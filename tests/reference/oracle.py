"""The brute-force query oracle and a hashable identity for its composites.

:func:`evaluate_query_oracle` runs none of the engines' join operators: it
filters each input with the query's selections (``base_input``, the same
push-down the static engine uses) and checks every combination of the
filtered inputs against the join predicates.
"""

from __future__ import annotations

import itertools

from repro.joins.base import Composite, merge, satisfies
from repro.joins.pipeline import base_input
from repro.query.query import Query
from repro.storage.catalog import Catalog


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


def composite_key(composite: Composite) -> tuple:
    """A hashable identity for a composite (for duplicate checks in tests)."""
    parts = []
    for alias in sorted(composite):
        row = composite[alias]
        parts.append((alias, row.table, row.values))
    return tuple(parts)
