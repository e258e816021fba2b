"""Query validation: can the query be executed at all?

Paper section 2.2, step 1: "Check that the query is valid, i.e., it can be
executed given the bind-field constraints on the data sources (we use the
algorithm from Nail)."

:func:`check_query` is that step, and the one check every engine runs
before virtual time 0: column references and types, then reachability.

A table reachable only through index access methods can be read only if all
the bind columns of at least one of its indexes can be supplied — either by
constants in selection predicates or by equi-join predicates from tables that
are themselves reachable.  :func:`validate_bindings` implements the fixpoint
computation that decides reachability and, as a by-product, produces a
feasible access order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Mapping

from repro.errors import BindingError, QueryError
from repro.query.expressions import ColumnRef, Expression, Literal
from repro.query.predicates import Comparison, InList
from repro.query.query import Query
from repro.storage.catalog import AccessMethodSpec, Catalog, IndexSpec, ScanSpec
from repro.storage.types import DataType

#: The type families a comparison may not cross, per declared column type
#: and per Python literal type: numbers, strings, booleans.
_FAMILY = {DataType.INTEGER: "numeric", DataType.FLOAT: "numeric",
           DataType.STRING: "string", DataType.BOOLEAN: "boolean"}
_LITERAL_FAMILY = {int: "numeric", float: "numeric", str: "string", bool: "boolean"}


@dataclass(frozen=True)
class BindingPlan:
    """Result of bind-field validation.

    Attributes:
        access_order: one feasible order in which aliases can first be
            accessed (the order the fixpoint reached them in).
        usable_access_methods: for each alias, the access methods that can
            possibly be used at some point during execution.
        driver_aliases: aliases accessible without any bindings (i.e. having
            a scan AM, or an index whose bind columns are bound by constants).
    """

    access_order: tuple[str, ...]
    usable_access_methods: Mapping[str, tuple[AccessMethodSpec, ...]]
    driver_aliases: frozenset[str]

    def methods_for(self, alias: str) -> tuple[AccessMethodSpec, ...]:
        """Access methods usable for an alias."""
        return self.usable_access_methods[alias]


def constant_bound_columns(query: Query, alias: str) -> dict[str, Comparison]:
    """Columns of ``alias`` bound to constants by equality selections.

    Each column maps to the first selection that binds it.
    """
    bound: dict[str, Comparison] = {}
    for predicate in query.predicates_on(alias):
        if not isinstance(predicate, Comparison) or predicate.op not in ("=", "=="):
            continue
        left, right = predicate.left, predicate.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            bound.setdefault(left.column, predicate)
        elif isinstance(right, ColumnRef) and isinstance(left, Literal):
            bound.setdefault(right.column, predicate)
    return bound


def joinable_columns(query: Query, alias: str, accessible: frozenset[str]) -> frozenset[str]:
    """Columns of ``alias`` bindable via equi-joins with accessible aliases."""
    bound: set[str] = set()
    for predicate in query.equi_join_predicates:
        own = predicate.column_for(alias)
        if own is None:
            continue
        other = predicate.other_side(alias)
        if isinstance(other, ColumnRef) and other.alias in accessible:
            bound.add(own.column)
    return frozenset(bound)


def index_usable(spec: IndexSpec, bound_columns: AbstractSet[str]) -> bool:
    """True if all of the index's bind columns are bound."""
    return frozenset(spec.bind_columns) <= bound_columns


def _value_family(value: Any) -> str | None:
    """A literal's type family; None for NULL, which compares with any."""
    if value is None:
        return None
    return _LITERAL_FAMILY.get(type(value), type(value).__name__)


def check_query(query: Query, catalog: Catalog) -> BindingPlan:
    """Check that the query is valid against the catalog; return its plan.

    Its references and types are checked by :func:`_check_references`, its
    bind-field constraints decided by :func:`validate_bindings`.

    Raises:
        QueryError: on the first reference, type or binding the query
            cannot satisfy (:class:`BindingError` for the last).
    """
    _check_references(query, catalog)
    return validate_bindings(query, catalog)


def _check_references(query: Query, catalog: Catalog) -> None:
    """Resolve and type-check every column reference of the query.

    Every column reference — in predicates, projections, GROUP BY and
    aggregate arguments — must name a column of its table; ``SUM``/``AVG``
    need a numeric column; a comparison (and every member of an IN list)
    must stay inside one type family (:data:`_FAMILY`), NULL literals
    excepted.

    Raises:
        QueryError: on the first reference or type the catalog refutes.
    """
    schemas = {ref.alias: catalog.table(ref.table).schema for ref in query.tables}

    def family(expression: Expression, what: str) -> str | None:
        if isinstance(expression, Literal):
            return _value_family(expression.value)
        schema = schemas[expression.alias]
        if expression.column not in schema:
            raise QueryError(
                f"{what} names no column of {query.table_of(expression.alias)!r} "
                f"(columns: {list(schema.names)})"
            )
        return _FAMILY[schema[expression.column].dtype]

    for predicate in query.predicates:
        what = f"predicate {predicate}"
        if isinstance(predicate, Comparison):
            sides = {family(predicate.left, what), family(predicate.right, what)}
            sides.discard(None)
            if len(sides) > 1:
                raise QueryError(f"{what} compares {' with '.join(sorted(sides))} values")
        elif isinstance(predicate, InList):
            own = family(predicate.column, what)
            strays = {_value_family(value) for value in predicate.values} - {own, None}
            if strays:
                raise QueryError(
                    f"{what} lists {', '.join(sorted(strays))} values for a {own} column"
                )
    for column in query.projections:
        family(column, f"projection {column}")
    for column in query.group_by:
        family(column, f"GROUP BY column {column}")
    for spec in query.aggregates:
        if spec.column is None:
            continue
        kind = family(spec.column, f"aggregate {spec.label}")
        if spec.func in ("sum", "avg") and kind != "numeric":
            raise QueryError(
                f"aggregate {spec.label} needs a numeric column, "
                f"and {spec.column} is {kind}"
            )


def validate_bindings(query: Query, catalog: Catalog) -> BindingPlan:
    """Check that every alias of the query is reachable; return a plan.

    Raises:
        BindingError: if some alias can never be accessed.
    """
    alias_tables = {ref.alias: ref.table for ref in query.tables}
    for alias, table in alias_tables.items():
        if not catalog.access_methods(table):
            raise BindingError(
                f"table {table!r} (alias {alias!r}) has no access methods"
            )

    accessible: set[str] = set()
    order: list[str] = []
    usable: dict[str, list[AccessMethodSpec]] = {alias: [] for alias in alias_tables}
    drivers: set[str] = set()

    def try_alias(alias: str) -> bool:
        """Mark the alias accessible if some AM is usable now; return success."""
        table = alias_tables[alias]
        bound = constant_bound_columns(query, alias).keys() | joinable_columns(
            query, alias, frozenset(accessible)
        )
        found = False
        for spec in catalog.access_methods(table):
            if isinstance(spec, ScanSpec):
                found = True
                if spec not in usable[alias]:
                    usable[alias].append(spec)
            elif isinstance(spec, IndexSpec) and index_usable(spec, bound):
                found = True
                if spec not in usable[alias]:
                    usable[alias].append(spec)
        return found

    # Fixpoint: repeatedly add aliases that have become accessible.
    changed = True
    while changed:
        changed = False
        for alias in query.alias_order:
            if alias in accessible:
                # Re-check: more join columns may have become bindable,
                # enabling additional (competitive) access methods.
                try_alias(alias)
                continue
            if try_alias(alias):
                accessible.add(alias)
                order.append(alias)
                if not joinable_columns(query, alias, frozenset(accessible - {alias})):
                    # Accessible without help from other aliases.
                    has_scan = any(isinstance(s, ScanSpec) for s in usable[alias])
                    bound_by_constants = constant_bound_columns(query, alias).keys()
                    has_const_index = any(
                        isinstance(s, IndexSpec)
                        and index_usable(s, bound_by_constants)
                        for s in usable[alias]
                    )
                    if has_scan or has_const_index:
                        drivers.add(alias)
                changed = True

    unreachable = set(alias_tables) - accessible
    if unreachable:
        raise BindingError(
            "query cannot be executed: no usable access method for "
            f"{sorted(unreachable)} given the bind-field constraints"
        )
    if not drivers:
        raise BindingError(
            "query cannot be executed: every table requires bindings from "
            "another table (no driver source)"
        )
    return BindingPlan(
        access_order=tuple(order),
        usable_access_methods={
            alias: tuple(specs) for alias, specs in usable.items()
        },
        driver_aliases=frozenset(drivers),
    )
