"""Column data types.

The storage layer supports a small set of scalar types, sufficient for the
paper's workloads (integers, floats, strings, booleans).  Types are used for
schema validation, and are named in ``Schema.of`` specs such as ``"a:int"``.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Scalar data types supported by the storage layer."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"

    def validate(self, value: Any) -> bool:
        """Return True if ``value`` is a valid instance of this type.

        ``None`` is always valid: it represents SQL NULL.
        """
        if value is None:
            return True
        if self is DataType.FLOAT:
            # Integers are acceptable wherever floats are expected.
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.BOOLEAN:
            return isinstance(value, bool)
        return isinstance(value, str)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Look up a data type by its SQL-ish name (e.g. ``int``, ``text``)."""
        normalized = name.strip().lower()
        try:
            return _NAME_ALIASES[normalized]
        except KeyError:
            raise SchemaError(f"unknown data type {name!r}") from None


_NAME_ALIASES = {
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "real": DataType.FLOAT,
    "numeric": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "str": DataType.STRING,
    "string": DataType.STRING,
    "text": DataType.STRING,
    "varchar": DataType.STRING,
    "char": DataType.STRING,
    "bool": DataType.BOOLEAN,
    "boolean": DataType.BOOLEAN,
}
