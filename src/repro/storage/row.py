"""Rows: immutable tuples of values conforming to a schema.

A :class:`Row` is a single record of a base table.  Rows are immutable and
hashable; equality is defined over ``(table, values)`` so that set-semantics
duplicate elimination (paper section 3.2) falls out of ordinary ``set`` and
``dict`` behaviour.  The ``rid`` field is a per-table sequence number that
identifies the physical row but does not participate in equality.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.errors import SchemaError, UnknownColumnError
from repro.storage.schema import Schema


class Row:
    """One record of a base table.

    Args:
        table: name of the base table the row belongs to.
        schema: the table's schema.
        values: the column values, in schema order.
        rid: physical row identifier (sequence number within the table).
        validate: when True, values are checked against the schema.
    """

    __slots__ = ("table", "schema", "values", "rid", "_hash")

    def __init__(
        self,
        table: str,
        schema: Schema,
        values: Sequence[Any],
        rid: int = -1,
        validate: bool = False,
    ):
        if validate:
            schema.validate_values(values)
        elif len(values) != len(schema):
            raise SchemaError(
                f"row for table {table!r} has {len(values)} values, "
                f"schema has {len(schema)} columns"
            )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "rid", rid)
        #: Memoized ``hash((table, values))``: computed on first use, so an
        #: unhashable value raises where the row is first hashed.
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Row objects are immutable")

    # -- value access ---------------------------------------------------------

    def __getitem__(self, column: str) -> Any:
        """Value of the named column, raising :class:`UnknownColumnError`
        for any name the schema does not hold — including unhashable ones."""
        try:
            position = self.schema.position(column)
        except TypeError:
            raise UnknownColumnError(repr(column), self.schema.names) from None
        return self.values[position]

    def get(self, column: str, default: Any = None) -> Any:
        """Value of the named column, or ``default`` if the column is absent.

        Mirrors ``dict.get``: never raises for a bad name — unknown and
        unhashable column names both yield ``default``.
        """
        try:
            return self.values[self.schema.position(column)]
        except (UnknownColumnError, TypeError):
            return default

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[str, Any]:
        """The row as a ``{column: value}`` dictionary."""
        return dict(zip(self.schema.names, self.values))

    def key_values(self, columns: Sequence[str]) -> tuple[Any, ...]:
        """The values of the given columns, as a tuple (for index keys)."""
        return tuple(self[c] for c in columns)

    def values_at(self, positions: Sequence[int]) -> tuple[Any, ...]:
        """The values at the given schema positions, as a tuple.

        The positional fast path of :meth:`key_values`: callers that have
        resolved column names to positions once (indexes, compiled probe
        plans) skip the per-access name lookup entirely.
        """
        values = self.values
        return tuple(values[p] for p in positions)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.table == other.table and self.values == other.values

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.table, self.values))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.schema.names, self.values)
        )
        return f"Row({self.table}: {pairs})"

    # -- derivation -----------------------------------------------------------

    def replace(self, **updates: Any) -> "Row":
        """A new row with some column values replaced."""
        for column in updates:
            if column not in self.schema:
                raise UnknownColumnError(column, self.schema.names)
        values = [
            updates.get(name, value)
            for name, value in zip(self.schema.names, self.values)
        ]
        return Row(self.table, self.schema, values, rid=self.rid)

    @classmethod
    def from_mapping(
        cls,
        table: str,
        schema: Schema,
        mapping: Mapping[str, Any],
        rid: int = -1,
    ) -> "Row":
        """Build a row from a ``{column: value}`` mapping.

        Columns missing from the mapping get ``None``.
        """
        values = [mapping.get(name) for name in schema.names]
        return cls(table, schema, values, rid=rid)
