"""Schemas: ordered collections of typed, named columns.

A :class:`Schema` describes the layout of rows in a base table.  Schemas are
immutable; operations like projection and concatenation return new schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, UnknownColumnError
from repro.storage.types import DataType


@dataclass(frozen=True)
class Column:
    """A single named, typed column of a schema.

    Attributes:
        name: column name, unique within its schema.
        dtype: the column's scalar data type.
        nullable: whether NULL (None) values are permitted.
    """

    name: str
    dtype: DataType = DataType.INTEGER
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name {self.name!r}")

    def validate(self, value: Any) -> None:
        """Raise SchemaError if ``value`` is not acceptable for this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not self.dtype.validate(value):
            raise SchemaError(
                f"value {value!r} is not a valid {self.dtype.value} "
                f"for column {self.name!r}"
            )


class Schema:
    """An ordered, immutable collection of :class:`Column` objects.

    Args:
        columns: the columns in order.  Column names must be unique.
        key: optional sequence of column names forming the primary key.
    """

    __slots__ = ("_columns", "_names", "_by_name", "_key")

    def __init__(
        self,
        columns: Iterable[Column],
        key: Sequence[str] = (),
    ):
        cols = tuple(columns)
        by_name: dict[str, int] = {}
        for position, column in enumerate(cols):
            if column.name in by_name:
                raise SchemaError(f"duplicate column name {column.name!r}")
            by_name[column.name] = position
        for key_column in key:
            if key_column not in by_name:
                raise UnknownColumnError(key_column, tuple(by_name))
        self._columns = cols
        self._names = tuple(by_name)
        self._by_name = by_name
        self._key = tuple(key)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *specs: str, key: Sequence[str] = ()) -> "Schema":
        """Build a schema from ``"name:type"`` specification strings.

        Example::

            Schema.of("key:int", "a:int", "name:text", key=["key"])
        """
        columns = []
        for spec in specs:
            if ":" in spec:
                name, _, type_name = spec.partition(":")
                columns.append(Column(name.strip(), DataType.from_name(type_name)))
            else:
                columns.append(Column(spec.strip(), DataType.INTEGER))
        return cls(columns, key=key)

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, DataType | str], key: Sequence[str] = ()
    ) -> "Schema":
        """Build a schema from a ``{name: type}`` mapping."""
        columns = []
        for name, dtype in mapping.items():
            if isinstance(dtype, str):
                dtype = DataType.from_name(dtype)
            columns.append(Column(name, dtype))
        return cls(columns, key=key)

    # -- basic accessors ------------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """The columns, in declaration order."""
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        """The column names, in declaration order."""
        return self._names

    @property
    def key(self) -> tuple[str, ...]:
        """The primary-key column names (possibly empty)."""
        return self._key

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[self._by_name[name]]
        except KeyError:
            raise UnknownColumnError(name, self.names) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns and self._key == other._key

    def __hash__(self) -> int:
        return hash((self._columns, self._key))

    def __repr__(self) -> str:
        spec = ", ".join(f"{c.name}:{c.dtype.value}" for c in self._columns)
        return f"Schema({spec})"

    def position(self, name: str) -> int:
        """The ordinal position of a column, raising if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(name, self.names) from None

    def validate_values(self, values: Sequence[Any]) -> None:
        """Raise SchemaError unless ``values`` conforms to this schema."""
        if len(values) != len(self._columns):
            raise SchemaError(
                f"expected {len(self._columns)} values, got {len(values)}"
            )
        for column, value in zip(self._columns, values):
            column.validate(value)
