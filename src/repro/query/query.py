"""Query specifications: select-project-join queries, plus aggregates.

A :class:`Query` is the declarative object the engines execute.  It holds
the FROM-clause table references (with aliases), the WHERE-clause predicates,
and the SELECT-list projections.  Single-table ``GROUP BY`` aggregate
queries carry their grouping columns and :class:`AggregateSpec` list instead
of projections — the aggregation itself runs *above* the eddy (as the paper
puts it), incrementally off the SteM's pending delta
(:mod:`repro.core.aggregates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import QueryError, UnknownTableError
from repro.query.expressions import ColumnRef
from repro.query.predicates import Comparison, Predicate

#: Aggregate functions the engine maintains incrementally.
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One SELECT-list aggregate call: ``func(column)`` or ``count(*)``.

    Attributes:
        func: one of :data:`AGGREGATE_FUNCS`.
        column: the argument column; ``None`` only for ``count(*)``.
    """

    func: str
    column: ColumnRef | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise QueryError(
                f"unknown aggregate function {self.func!r} "
                f"(supported: {', '.join(AGGREGATE_FUNCS)})"
            )
        if self.column is None and self.func != "count":
            raise QueryError(f"{self.func}(*) is not defined; only count(*) is")

    @property
    def label(self) -> str:
        """The canonical SELECT-list rendering, e.g. ``sum(R.a)``."""
        argument = "*" if self.column is None else str(self.column)
        return f"{self.func}({argument})"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause entry: a base table under an alias.

    Attributes:
        table: name of the base table in the catalog.
        alias: the alias used in the query (defaults to the table name).
    """

    table: str
    alias: str

    @classmethod
    def of(cls, table: str, alias: str | None = None) -> "TableRef":
        return cls(table=table, alias=alias or table)

    def __str__(self) -> str:
        if self.alias == self.table:
            return self.table
        return f"{self.table} AS {self.alias}"


class Query:
    """A select-project-join query.

    Args:
        tables: the FROM-clause entries.  Aliases must be unique.
        predicates: WHERE-clause predicates (implicitly conjoined).
        projections: SELECT-list column references; empty means ``SELECT *``.
        name: optional human-readable query name (used in reports).
        group_by: GROUP BY columns, in clause order.  Requires at least one
            aggregate; the canonical select list is the group columns
            followed by the aggregates.
        aggregates: SELECT-list :class:`AggregateSpec` entries.  Aggregate
            queries must reference exactly one table (windowed aggregation
            over one SteM); ``projections`` must then be empty — the group
            columns *are* the plain output columns.
    """

    def __init__(
        self,
        tables: Sequence[TableRef | str],
        predicates: Sequence[Predicate] = (),
        projections: Sequence[ColumnRef | str] = (),
        name: str = "query",
        group_by: Sequence[ColumnRef | str] = (),
        aggregates: Sequence[AggregateSpec] = (),
    ):
        refs: list[TableRef] = []
        for entry in tables:
            if isinstance(entry, TableRef):
                refs.append(entry)
            else:
                refs.append(TableRef.of(entry))
        aliases = [ref.alias for ref in refs]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in FROM clause: {aliases}")
        if not refs:
            raise QueryError("a query needs at least one table")
        self.tables: tuple[TableRef, ...] = tuple(refs)
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        self.projections: tuple[ColumnRef, ...] = tuple(
            p if isinstance(p, ColumnRef) else ColumnRef.parse(p)
            for p in projections
        )
        self.group_by: tuple[ColumnRef, ...] = tuple(
            c if isinstance(c, ColumnRef) else ColumnRef.parse(c)
            for c in group_by
        )
        self.aggregates: tuple[AggregateSpec, ...] = tuple(aggregates)
        self.name = name
        self._validate_references()
        self._validate_aggregates()

    # -- validation -----------------------------------------------------------

    def _validate_references(self) -> None:
        known = self.aliases
        for predicate in self.predicates:
            unknown = predicate.aliases() - known
            if unknown:
                raise UnknownTableError(sorted(unknown)[0], tuple(sorted(known)))
        for projection in self.projections:
            if projection.alias not in known:
                raise UnknownTableError(projection.alias, tuple(sorted(known)))
        for column in self.group_by:
            if column.alias not in known:
                raise UnknownTableError(column.alias, tuple(sorted(known)))
        for spec in self.aggregates:
            if spec.column is not None and spec.column.alias not in known:
                raise UnknownTableError(
                    spec.column.alias, tuple(sorted(known))
                )

    def _validate_aggregates(self) -> None:
        if not self.aggregates:
            if self.group_by:
                raise QueryError(
                    "GROUP BY requires at least one aggregate in the "
                    "select list"
                )
            return
        if len(self.tables) != 1:
            raise QueryError(
                "aggregate queries must reference exactly one table "
                "(incremental aggregation windows over a single SteM); got "
                f"{len(self.tables)} FROM entries"
            )
        if self.projections:
            raise QueryError(
                "aggregate queries carry their plain output columns in "
                "group_by, not projections"
            )
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate GROUP BY columns: {self.group_by}")
        if self.join_predicates:
            raise QueryError(
                "aggregate queries cannot carry join predicates"
            )

    # -- accessors ------------------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        """All aliases in the FROM clause."""
        return frozenset(ref.alias for ref in self.tables)

    @property
    def alias_order(self) -> tuple[str, ...]:
        """Aliases in FROM-clause order (used for deterministic iteration)."""
        return tuple(ref.alias for ref in self.tables)

    def table_of(self, alias: str) -> str:
        """The base-table name behind an alias."""
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise UnknownTableError(alias, tuple(sorted(self.aliases)))

    def aliases_of_table(self, table: str) -> tuple[str, ...]:
        """All aliases referring to the given base table (self-joins)."""
        return tuple(ref.alias for ref in self.tables if ref.table == table)

    # -- predicate classification ---------------------------------------------

    @property
    def selection_predicates(self) -> tuple[Predicate, ...]:
        """Predicates referencing exactly one alias."""
        return tuple(p for p in self.predicates if p.is_selection)

    @property
    def join_predicates(self) -> tuple[Predicate, ...]:
        """Predicates referencing two or more aliases."""
        return tuple(p for p in self.predicates if not p.is_selection)

    @property
    def equi_join_predicates(self) -> tuple[Comparison, ...]:
        """Equi-join predicates (column = column across two aliases)."""
        return tuple(
            p for p in self.predicates
            if isinstance(p, Comparison) and p.is_equi_join
        )

    def predicates_on(self, alias: str) -> tuple[Predicate, ...]:
        """Selection predicates referencing only the given alias."""
        return tuple(
            p for p in self.selection_predicates if p.aliases() == {alias}
        )

    def predicates_between(
        self, left: Iterable[str] | str, right: Iterable[str] | str
    ) -> tuple[Predicate, ...]:
        """Join predicates whose aliases straddle the two alias sets.

        A predicate qualifies when it references at least one alias from each
        side and no alias outside the union — i.e. it becomes evaluable
        exactly when the two sides are concatenated.
        """
        left_set = frozenset([left]) if isinstance(left, str) else frozenset(left)
        right_set = frozenset([right]) if isinstance(right, str) else frozenset(right)
        union = left_set | right_set
        chosen = []
        for predicate in self.join_predicates:
            referenced = predicate.aliases()
            if (
                referenced & left_set
                and referenced & right_set
                and referenced <= union
            ):
                chosen.append(predicate)
        return tuple(chosen)

    def join_columns_of(self, alias: str) -> tuple[str, ...]:
        """Columns of ``alias`` involved in equi-join predicates.

        These are the columns the SteM on the alias's table indexes.
        """
        columns: list[str] = []
        for predicate in self.equi_join_predicates:
            ref = predicate.column_for(alias)
            if ref is not None and ref.column not in columns:
                columns.append(ref.column)
        return tuple(columns)

    # -- aggregation -----------------------------------------------------------

    @property
    def is_aggregate(self) -> bool:
        """True for a GROUP BY / aggregate query."""
        return bool(self.aggregates)

    @property
    def aggregate_alias(self) -> str:
        """The single FROM alias of an aggregate query."""
        if not self.is_aggregate:
            raise QueryError(f"query {self.name!r} has no aggregates")
        return self.tables[0].alias

    @property
    def aggregate_labels(self) -> tuple[str, ...]:
        """Output-column labels: group columns, then aggregate calls."""
        return tuple(str(column) for column in self.group_by) + tuple(
            spec.label for spec in self.aggregates
        )

    def __repr__(self) -> str:
        froms = ", ".join(str(ref) for ref in self.tables)
        wheres = " AND ".join(str(p) for p in self.predicates)
        if self.aggregates:
            select = ", ".join(self.aggregate_labels)
        elif self.projections:
            select = ", ".join(str(p) for p in self.projections)
        else:
            select = "*"
        text = f"SELECT {select} FROM {froms}"
        if wheres:
            text += f" WHERE {wheres}"
        if self.group_by:
            text += " GROUP BY " + ", ".join(str(c) for c in self.group_by)
        return f"Query({text})"
