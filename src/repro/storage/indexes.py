"""The table-side index: an equality multimap from key values to rows.

The paper's SteMs "encapsulate a dictionary data structure over tuples from a
table"; a SteM keeps its own (hash buckets that carry build timestamps, see
:mod:`repro.core.stem`).  A :class:`~repro.storage.table.Table` keeps a
:class:`HashIndex` on its primary key and on every column tuple an index
access method binds, so a lookup there is a dictionary hit, not a scan.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage.row import Row


class HashIndex:
    """Unordered multimap from key values to rows (dict of lists).

    Keys are derived from the rows themselves via the index's
    ``key_columns``.
    """

    def __init__(self, key_columns: Sequence[str]):
        self.key_columns = tuple(key_columns)
        #: Positional fast path for :meth:`key_of`: the key columns resolved
        #: to positions in the last schema seen.  One entry suffices — in
        #: practice every row indexed by one index carries its base table's
        #: schema, so the memo never thrashes.
        self._key_schema = None
        self._key_positions: tuple[int, ...] = ()
        self._buckets: dict[tuple[Any, ...], list[Row]] = {}
        self._size = 0

    def key_of(self, row: Row) -> tuple[Any, ...]:
        """The index key of a row (positional once the schema is known)."""
        schema = row.schema
        if schema is not self._key_schema:
            self._key_positions = tuple(
                schema.position(column) for column in self.key_columns
            )
            self._key_schema = schema
        return row.values_at(self._key_positions)

    def insert(self, row: Row) -> None:
        """Add a row to the index."""
        self._buckets.setdefault(self.key_of(row), []).append(row)
        self._size += 1

    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        """All rows whose key columns equal ``key``."""
        return list(self._buckets.get(tuple(key), ()))

    def __iter__(self) -> Iterator[Row]:
        for bucket in self._buckets.values():
            yield from bucket

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"HashIndex(key={','.join(self.key_columns)}, "
            f"rows={self._size}, keys={len(self._buckets)})"
        )
