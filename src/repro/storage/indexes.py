"""In-memory index structures used by tables and join algorithms.

The paper's SteMs "encapsulate a dictionary data structure over tuples from a
table"; a SteM keeps its own (hash buckets that carry build timestamps, see
:mod:`repro.core.stem`).  This module provides the table-side dictionaries:

* :class:`HashIndex` — an unordered multimap from key values to rows,
  supporting equality lookups (the default for tables and hash joins).
* :class:`SortedIndex` — a sorted multimap supporting equality and range
  lookups (used to simulate sort-based algorithms and B-tree access methods).
* :class:`ListIndex` — a plain append-only list with linear-scan lookups,
  corresponding to the paper's remark that a SteM "may use a linked list when
  it holds a small number of tuples".
* :class:`AdaptiveIndex` — starts as a list and switches to a hash index once
  it grows past a threshold, which is exactly the internal adaptation the
  paper describes in section 3.1.

All indexes share the same small interface (:class:`RowIndex`) so that a
table or a join can be configured with any of them.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Sequence

from repro.storage.row import Row


class RowIndex(ABC):
    """Common interface of all row indexes.

    An index maps a tuple of key-column values to the rows holding those
    values.  Keys are derived from the rows themselves via the index's
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

    @abstractmethod
    def insert(self, row: Row) -> None:
        """Add a row to the index."""

    @abstractmethod
    def remove(self, row: Row) -> bool:
        """Remove one occurrence of a row; return True if it was present."""

    @abstractmethod
    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        """All rows whose key columns equal ``key``."""

    @abstractmethod
    def __iter__(self) -> Iterator[Row]:
        """Iterate over all rows in the index."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of rows in the index."""

    def key_of(self, row: Row) -> tuple[Any, ...]:
        """The index key of a row (positional once the schema is known)."""
        schema = row.schema
        if schema is not self._key_schema:
            self._key_positions = tuple(
                schema.position(column) for column in self.key_columns
            )
            self._key_schema = schema
        return row.values_at(self._key_positions)

    def lookup_row(self, probe: Row) -> list[Row]:
        """All rows matching the key values carried by ``probe``.

        ``probe`` must have columns with the same *names* as the index's key
        columns; this is used by SteMs when an equi-join predicate equates
        identically-named columns after renaming.
        """
        return self.lookup(probe.key_values(self.key_columns))

    def contains(self, row: Row) -> bool:
        """True if an equal row is already present."""
        return any(existing == row for existing in self.lookup(self.key_of(row)))


class HashIndex(RowIndex):
    """Unordered multimap from key values to rows (dict of lists)."""

    def __init__(self, key_columns: Sequence[str]):
        super().__init__(key_columns)
        self._buckets: dict[tuple[Any, ...], list[Row]] = {}
        self._size = 0

    def insert(self, row: Row) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(row)
        self._size += 1

    def remove(self, row: Row) -> bool:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if not bucket:
            return False
        try:
            bucket.remove(row)
        except ValueError:
            return False
        if not bucket:
            del self._buckets[key]
        self._size -= 1
        return True

    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        return list(self._buckets.get(tuple(key), ()))

    def keys(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over the distinct keys currently present."""
        return iter(self._buckets)

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


class SortedIndex(RowIndex):
    """Sorted multimap supporting equality and range lookups.

    Rows are kept in a list sorted by key; lookups use binary search.  This
    stands in for a B-tree / tournament-tree structure and supports the
    sort-merge style SteM implementations of paper section 3.1.
    """

    def __init__(self, key_columns: Sequence[str]):
        super().__init__(key_columns)
        self._keys: list[tuple[Any, ...]] = []
        self._rows: list[Row] = []

    def insert(self, row: Row) -> None:
        key = self.key_of(row)
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rows.insert(position, row)

    def remove(self, row: Row) -> bool:
        key = self.key_of(row)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        for position in range(lo, hi):
            if self._rows[position] == row:
                del self._keys[position]
                del self._rows[position]
                return True
        return False

    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        key = tuple(key)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._rows[lo:hi]

    def range_lookup(
        self,
        low: tuple[Any, ...] | None = None,
        high: tuple[Any, ...] | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[Row]:
        """All rows with keys in the interval [low, high] (or half-open)."""
        if low is None:
            lo = 0
        elif include_low:
            lo = bisect.bisect_left(self._keys, tuple(low))
        else:
            lo = bisect.bisect_right(self._keys, tuple(low))
        if high is None:
            hi = len(self._keys)
        elif include_high:
            hi = bisect.bisect_right(self._keys, tuple(high))
        else:
            hi = bisect.bisect_left(self._keys, tuple(high))
        return self._rows[lo:hi]

    def min_key(self) -> tuple[Any, ...] | None:
        """Smallest key present, or None if the index is empty."""
        return self._keys[0] if self._keys else None

    def max_key(self) -> tuple[Any, ...] | None:
        """Largest key present, or None if the index is empty."""
        return self._keys[-1] if self._keys else None

    def __iter__(self) -> Iterator[Row]:
        return iter(list(self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"SortedIndex(key={','.join(self.key_columns)}, rows={len(self._rows)})"


class ListIndex(RowIndex):
    """Append-only list with linear-scan lookups.

    Cheap to build and adequate while small; the paper notes a SteM may use
    such a structure before switching to a hash index.
    """

    def __init__(self, key_columns: Sequence[str]):
        super().__init__(key_columns)
        self._rows: list[Row] = []

    def insert(self, row: Row) -> None:
        self._rows.append(row)

    def remove(self, row: Row) -> bool:
        try:
            self._rows.remove(row)
        except ValueError:
            return False
        return True

    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        key = tuple(key)
        return [row for row in self._rows if self.key_of(row) == key]

    def __iter__(self) -> Iterator[Row]:
        return iter(list(self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"ListIndex(key={','.join(self.key_columns)}, rows={len(self._rows)})"


class AdaptiveIndex(RowIndex):
    """Index that starts as a list and upgrades itself to a hash index.

    This mirrors the paper's observation (section 3.1) that the SteM
    implementation can switch data structures "independent of other modules".

    Args:
        key_columns: key columns of the index.
        switch_threshold: number of rows at which the list is converted to a
            hash index.
    """

    def __init__(self, key_columns: Sequence[str], switch_threshold: int = 64):
        super().__init__(key_columns)
        if switch_threshold < 1:
            raise ValueError("switch_threshold must be at least 1")
        self.switch_threshold = switch_threshold
        self._impl: RowIndex = ListIndex(key_columns)

    @property
    def implementation(self) -> RowIndex:
        """The currently active underlying index (list or hash)."""
        return self._impl

    @property
    def upgraded(self) -> bool:
        """True once the index has switched to a hash implementation."""
        return isinstance(self._impl, HashIndex)

    def _maybe_upgrade(self) -> None:
        if not self.upgraded and len(self._impl) >= self.switch_threshold:
            upgraded = HashIndex(self.key_columns)
            for row in self._impl:
                upgraded.insert(row)
            self._impl = upgraded

    def insert(self, row: Row) -> None:
        self._impl.insert(row)
        self._maybe_upgrade()

    def remove(self, row: Row) -> bool:
        return self._impl.remove(row)

    def lookup(self, key: tuple[Any, ...]) -> list[Row]:
        return self._impl.lookup(key)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._impl)

    def __len__(self) -> int:
        return len(self._impl)

    def __repr__(self) -> str:
        kind = "hash" if self.upgraded else "list"
        return f"AdaptiveIndex({kind}, key={','.join(self.key_columns)}, rows={len(self)})"


def build_index(
    kind: str, key_columns: Sequence[str], rows: Iterable[Row] = ()
) -> RowIndex:
    """Factory: build an index of the named kind, optionally pre-populated.

    Args:
        kind: one of ``"hash"``, ``"sorted"``, ``"list"``, ``"adaptive"``.
        key_columns: the key columns.
        rows: rows to insert after construction.
    """
    kinds: dict[str, type[RowIndex]] = {
        "hash": HashIndex,
        "sorted": SortedIndex,
        "list": ListIndex,
        "adaptive": AdaptiveIndex,
    }
    try:
        index_class = kinds[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; expected one of {sorted(kinds)}"
        ) from None
    index = index_class(key_columns)
    for row in rows:
        index.insert(row)
    return index
