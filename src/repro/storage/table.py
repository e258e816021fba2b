"""In-memory base tables.

A :class:`Table` owns a schema and a list of rows, and can maintain any
number of secondary hash indexes.  Tables are the data sources behind access
modules; traditional join operators and SteMs never touch tables directly,
they only see rows delivered by access methods.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.storage.indexes import HashIndex
from repro.storage.row import Row
from repro.storage.schema import Schema


class Table:
    """An in-memory base table.

    Args:
        name: table name (unique within a catalog).
        schema: the table schema.
        rows: optional initial rows, given as sequences of values or as
            ``{column: value}`` mappings.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]] = (),
    ):
        self.name = name
        self.schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        self._key_index: HashIndex | None = None
        if schema.key:
            self._key_index = HashIndex(schema.key)
        for row in rows:
            self.insert(row)

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Sequence[Any] | Mapping[str, Any] | Row) -> Row:
        """Insert a row and return the stored :class:`Row`.

        Accepts a sequence of values in schema order, a mapping, or an
        existing Row (whose values are copied).
        """
        rid = len(self._rows)
        if isinstance(values, Row):
            row = Row(self.name, self.schema, values.values, rid=rid)
        elif isinstance(values, Mapping):
            row = Row.from_mapping(self.name, self.schema, values, rid=rid)
        else:
            row = Row(self.name, self.schema, values, rid=rid, validate=True)
        if self._key_index is not None:
            key = row.key_values(self.schema.key)
            if self._key_index.lookup(key):
                raise SchemaError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._key_index.insert(row)
        self._rows.append(row)
        for index in self._indexes.values():
            index.insert(row)
        return row

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows, in insertion order."""
        return tuple(self._rows)

    def scan(self, predicate: Callable[[Row], bool] | None = None) -> Iterator[Row]:
        """Iterate over rows, optionally filtered by a predicate callable."""
        if predicate is None:
            yield from self._rows
        else:
            for row in self._rows:
                if predicate(row):
                    yield row

    def lookup(self, columns: Sequence[str], key: Sequence[Any]) -> list[Row]:
        """Equality lookup on the given columns.

        Uses a secondary index if one exists on exactly those columns (or the
        primary key index), otherwise falls back to a scan.
        """
        columns = tuple(columns)
        key = tuple(key)
        index = self._indexes.get(columns)
        if index is not None:
            return index.lookup(key)
        if self._key_index is not None and columns == self.schema.key:
            return self._key_index.lookup(key)
        return [row for row in self._rows if row.key_values(columns) == key]

    # -- secondary indexes ----------------------------------------------------

    def create_index(self, columns: Sequence[str]) -> HashIndex:
        """Create (or return an existing) secondary hash index on the columns."""
        columns = tuple(columns)
        for column in columns:
            if column not in self.schema:
                raise SchemaError(
                    f"cannot index unknown column {column!r} of table {self.name!r}"
                )
        if columns in self._indexes:
            return self._indexes[columns]
        index = HashIndex(columns)
        for row in self._rows:
            index.insert(row)
        self._indexes[columns] = index
        return index

    @property
    def indexes(self) -> dict[tuple[str, ...], HashIndex]:
        """All secondary indexes, keyed by their column tuples."""
        return dict(self._indexes)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self._rows)}, schema={self.schema!r})"
