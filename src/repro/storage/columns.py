"""Columnar data plane: batch-resident column storage beside :class:`Row`.

The row plane stores one Python object per record and pays per-candidate
interpreter cost in every hot loop.  This module is the columnar half of the
data plane:

* :class:`ColumnBatch` — an immutable batch of records decomposed into one
  value sequence per column (the unit of batch handoff between generators,
  tables and SteMs);
* :class:`ColumnStore` — the slot-addressed, append-mostly store backing a
  SteM's vectorized probe path: per-column value lists, a build-timestamp
  column, per-column posting lists (value -> slots) mirroring the SteM's
  secondary indexes, tombstoned eviction with compaction, and per-column
  :class:`~repro.storage.statistics.IncrementalColumnStats` maintained on
  every append/evict;
* :class:`ColumnarTable` — a :class:`~repro.storage.table.Table` whose
  insert path also appends to per-column sequences and maintains incremental
  statistics (the columnar datagen append path).

Backend selection
-----------------

Two kernel backends exist.  The stdlib baseline ("python") evaluates
per-element over plain lists and is always available; the "numpy" backend
lowers eligible comparisons to whole-array operations.  The active backend
is auto-detected (numpy if installed; imported when the first :class:`ColumnStore`
is built, which a SteM does at its first kernel-sized probe) and can be forced
with the ``REPRO_COLUMNAR_BACKEND`` environment variable:

* ``auto`` (or unset) — numpy when importable, else the python baseline;
* ``numpy`` — force the numpy kernels (falls back to python if numpy is
  genuinely absent);
* ``python`` — force the stdlib baseline;
* ``off`` — disable the columnar plane entirely; every probe runs on the
  row plane (the differential-testing oracle).

Typed-kernel eligibility is tracked per column as values append: a column
stays ``int`` while every value is an integer that fits well inside int64,
promotes to ``float`` when floats appear (unless an integer too large for
exact float64 representation was ever seen), and demotes to ``obj`` on
NULLs, strings, or anything else.  Only ``int``/``float`` columns without
NULLs materialize numpy arrays; everything else runs the per-element
baseline with NULL/TypeError semantics identical to the row plane
(a comparison involving ``None`` — or raising ``TypeError`` — is false).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.statistics import IncrementalColumnStats
from repro.storage.table import Table

#: numpy once :func:`numpy_module` imported it; False until asked for, None if that failed.
_np: Any = False

#: Column kind tags (typed-kernel eligibility).
KIND_INT = 0
KIND_FLOAT = 1
KIND_OBJ = 2

#: Largest integer magnitude a column may hold and stay int64-typed.
_INT64_SAFE = 2**62
#: Largest integer magnitude exactly representable in a float64 kernel.
FLOAT_EXACT_INT = 2**53


def numpy_available() -> bool:
    """True when the numpy kernel backend is installed (found, not imported)."""
    return importlib.util.find_spec("numpy") is not None


def numpy_module():
    """numpy (the kernel backend), imported at the first call; None if that fails."""
    global _np
    if _np is False:
        try:
            import numpy as _np
        except ImportError:
            _np = None
    return _np


def columnar_backend() -> str:
    """The active columnar backend: ``"numpy"``, ``"python"`` or ``"off"``.

    Resolved from ``REPRO_COLUMNAR_BACKEND`` on every call (the callers are
    constructors, not hot loops), so tests and CI matrix legs can flip the
    plane per process or per monkeypatched block.
    """
    raw = os.environ.get("REPRO_COLUMNAR_BACKEND", "auto").strip().lower()
    if raw in ("off", "row", "0", "false", "no", "disabled"):
        return "off"
    if raw in ("python", "list", "baseline"):
        return "python"
    # "numpy", "auto", "", "on", or anything unrecognised: best available kernel.
    return "numpy" if numpy_available() else "python"


def columnar_enabled() -> bool:
    """Process default for the columnar plane (``off`` disables it)."""
    return columnar_backend() != "off"


def _classify(kind: int, value: Any, exact_float: bool) -> tuple[int, bool]:
    """Fold one appended value into a column's (kind, exact_float) state.

    ``exact_float`` records whether every integer seen so far is exactly
    representable in float64 — required before an int column may promote to
    a float64 kernel without changing comparison results.
    """
    if value is None or kind == KIND_OBJ:
        return KIND_OBJ, exact_float
    if isinstance(value, bool) or type(value) is int:
        if -_INT64_SAFE <= value <= _INT64_SAFE:
            if abs(value) > FLOAT_EXACT_INT:
                exact_float = False
                if kind == KIND_FLOAT:
                    return KIND_OBJ, exact_float
            return kind, exact_float
        return KIND_OBJ, exact_float
    if type(value) is float:
        if value != value:  # NaN: set-membership and == disagree with numpy
            return KIND_OBJ, exact_float
        if kind == KIND_INT and not exact_float:
            return KIND_OBJ, exact_float
        return KIND_FLOAT, exact_float
    return KIND_OBJ, exact_float


class ColumnBatch:
    """An immutable batch of records in columnar form.

    One value sequence per schema column, positionally aligned: record ``i``
    of the batch is ``tuple(columns[j][i] for j)``.  The unit of batch
    handoff between the columnar datagen path, tables and SteMs.
    """

    __slots__ = ("schema", "table", "columns")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        table: str = "",
    ):
        if len(columns) != len(schema):
            raise SchemaError(
                f"batch has {len(columns)} columns, schema has {len(schema)}"
            )
        cols = tuple(tuple(column) for column in columns)
        if cols:
            length = len(cols[0])
            for column in cols[1:]:
                if len(column) != length:
                    raise SchemaError("batch columns have unequal lengths")
        self.schema = schema
        self.table = table
        self.columns = cols

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "ColumnBatch":
        """Decompose a sequence of same-schema rows into a batch."""
        if not rows:
            raise SchemaError("cannot build a ColumnBatch from zero rows")
        schema = rows[0].schema
        columns: list[list[Any]] = [[] for _ in schema]
        for row in rows:
            for position, value in enumerate(row.values):
                columns[position].append(value)
        return cls(schema, columns, table=rows[0].table)

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Sequence[Sequence[Any]],
        table: str = "",
    ) -> "ColumnBatch":
        """Decompose value sequences (in schema order) into a batch."""
        columns: list[list[Any]] = [[] for _ in schema]
        for record in records:
            if len(record) != len(schema):
                raise SchemaError(
                    f"record has {len(record)} values, schema has {len(schema)}"
                )
            for position, value in enumerate(record):
                columns[position].append(value)
        return cls(schema, columns, table=table)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> tuple[Any, ...]:
        """The value sequence of one named column."""
        return self.columns[self.schema.position(name)]

    def record(self, position: int) -> tuple[Any, ...]:
        """One record, re-assembled across the columns."""
        return tuple(column[position] for column in self.columns)

    def to_rows(self, table: str | None = None, rid_start: int = 0) -> list[Row]:
        """Materialize the batch as :class:`Row` objects (boundary only)."""
        name = table if table is not None else self.table
        return [
            Row(name, self.schema, self.record(position), rid=rid_start + position)
            for position in range(len(self))
        ]

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({self.table or '?'}, rows={len(self)}, "
            f"columns={len(self.columns)})"
        )


class ColumnStore:
    """Slot-addressed columnar mirror of a SteM's stored rows.

    Every stored record owns one *slot*; per-column value lists, the
    build-timestamp column, and the row-object column (for boundary
    materialization — the objects already exist in the row store, only
    references are kept) are all aligned on it.  Eviction tombstones the
    slot; once tombstones outnumber live slots the store compacts.

    Posting lists (``column -> value -> [slots]``) mirror the SteM's
    secondary indexes slot-wise: appended on build, removed on evict, so a
    posting list enumerates exactly the rows (in exactly the order) the
    row plane's index bucket would.
    """

    def __init__(self, schema: Schema, indexed_columns: Sequence[str] = ()):
        self.schema = schema
        n = len(schema)
        self.cols: list[list[Any]] = [[] for _ in range(n)]
        self.ts: list[float] = []
        self.rows: list[Row] = []
        self.live: bytearray = bytearray()
        self.slot_of: dict[Row, int] = {}
        self.dead_count = 0
        #: Typed-kernel eligibility per column.
        self.kinds: list[int] = [KIND_INT] * n
        self.exact_float: list[bool] = [True] * n
        #: Per-column incremental statistics (count/nulls/distinct/min/max),
        #: maintained on every append and evict.
        self.column_stats: dict[str, IncrementalColumnStats] = {
            name: IncrementalColumnStats(name) for name in schema.names
        }
        self.postings: dict[str, dict[Any, list[int]]] = {}
        self._posting_positions: dict[str, int] = {}
        for column in indexed_columns:
            self.add_posting_column(column)
        #: Kernel backend resolved at creation ("numpy" or "python"; an
        #: "off" process never constructs a store).
        self.backend = columnar_backend()
        if self.backend != "python":  # "numpy", or "off": the best that imports
            self.backend = "python" if numpy_module() is None else "numpy"
        #: numpy array cache, versioned: bumped on any mutation.
        self._version = 0
        self._np_version = -1
        self._np_cols: list[Any] | None = None
        self._np_ts: Any = None
        #: Posting-list slot arrays, invalidated wholesale on mutation so a
        #: probe burst between builds converts each bucket only once.
        self._np_posting_cache: dict[tuple[str, Any], Any] = {}

    # -- mutation ---------------------------------------------------------------

    def append(self, row: Row, timestamp: float) -> int:
        """Append one record; returns its slot."""
        slot = len(self.rows)
        self.rows.append(row)
        self.ts.append(timestamp)
        self.live.append(1)
        self.slot_of[row] = slot
        kinds = self.kinds
        exact = self.exact_float
        stats = self.column_stats
        names = self.schema.names
        for position, value in enumerate(row.values):
            self.cols[position].append(value)
            kinds[position], exact[position] = _classify(
                kinds[position], value, exact[position]
            )
            stats[names[position]].add(value)
        for column, bucket_map in self.postings.items():
            value = row.values[self._posting_positions[column]]
            bucket = bucket_map.get(value)
            if bucket is None:
                bucket_map[value] = [slot]
            else:
                bucket.append(slot)
        self._version += 1
        if self._np_posting_cache:
            self._np_posting_cache.clear()
        return slot

    def evict(self, row: Row) -> bool:
        """Tombstone the record's slot; compacts when mostly dead."""
        slot = self.slot_of.pop(row, None)
        if slot is None:
            return False
        self.live[slot] = 0
        self.dead_count += 1
        names = self.schema.names
        for position, value in enumerate(row.values):
            self.column_stats[names[position]].discard(value)
        for column, bucket_map in self.postings.items():
            value = row.values[self._posting_positions[column]]
            bucket = bucket_map.get(value)
            if bucket is not None:
                bucket.remove(slot)
                if not bucket:
                    del bucket_map[value]
        self._version += 1
        if self._np_posting_cache:
            self._np_posting_cache.clear()
        if self.dead_count > 64 and self.dead_count * 2 > len(self.rows):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstoned slots, renumbering the survivors in order."""
        keep = [slot for slot, alive in enumerate(self.live) if alive]
        self.rows = [self.rows[slot] for slot in keep]
        self.ts = [self.ts[slot] for slot in keep]
        self.cols = [[column[slot] for slot in keep] for column in self.cols]
        self.live = bytearray(b"\x01" * len(keep))
        self.slot_of = {row: slot for slot, row in enumerate(self.rows)}
        self.dead_count = 0
        for column in list(self.postings):
            self._rebuild_postings(column)
        self._version += 1

    # -- posting lists ------------------------------------------------------------

    def add_posting_column(self, column: str) -> None:
        """Maintain a posting list on one column (backfills live slots)."""
        if column in self.postings:
            return
        self._posting_positions[column] = self.schema.position(column)
        self.postings[column] = {}
        self._rebuild_postings(column)

    def drop_posting_column(self, column: str) -> None:
        """Stop maintaining the posting list on one column."""
        self.postings.pop(column, None)
        self._posting_positions.pop(column, None)

    def _rebuild_postings(self, column: str) -> None:
        position = self._posting_positions[column]
        bucket_map: dict[Any, list[int]] = {}
        values = self.cols[position]
        for slot, alive in enumerate(self.live):
            if alive:
                bucket_map.setdefault(values[slot], []).append(slot)
        self.postings[column] = bucket_map

    def posting_slots(self, column: str, value: Any) -> list[int] | None:
        """The slots holding ``value`` in ``column`` (insertion order), or
        None when the column has no posting list."""
        bucket_map = self.postings.get(column)
        if bucket_map is None:
            return None
        try:
            return bucket_map.get(value, _EMPTY_SLOTS)
        except TypeError:  # unhashable probe value: no posting can match it
            return _EMPTY_SLOTS

    # -- enumeration ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows) - self.dead_count

    def live_slots(self) -> range | list[int]:
        """Every live slot, in insertion order (``range`` when dense)."""
        if not self.dead_count:
            return range(len(self.rows))
        return [slot for slot, alive in enumerate(self.live) if alive]

    def stats_of(self, column: str) -> IncrementalColumnStats | None:
        """The incremental statistics of one column (None if unknown)."""
        return self.column_stats.get(column)

    # -- numpy kernel inputs -------------------------------------------------------

    def _sync_arrays(self) -> None:
        if self._np_version == self._version:
            return
        assert _np, "callers check numpy_module() first"
        arrays: list[Any] = []
        for position, values in enumerate(self.cols):
            kind = self.kinds[position]
            if kind == KIND_INT:
                arrays.append(_np.asarray(values, dtype=_np.int64))
            elif kind == KIND_FLOAT:
                arrays.append(_np.asarray(values, dtype=_np.float64))
            else:
                arrays.append(None)
        self._np_cols = arrays
        self._np_ts = _np.asarray(self.ts, dtype=_np.float64)
        self._np_version = self._version

    def np_column(self, position: int):
        """The typed numpy array of one column, or None (obj/NULL column)."""
        if numpy_module() is None:
            return None
        self._sync_arrays()
        assert self._np_cols is not None
        return self._np_cols[position]

    def np_ts(self):
        """The build-timestamp column as a float64 array."""
        if numpy_module() is None:
            return None
        self._sync_arrays()
        return self._np_ts

    def np_index_for(self, slots: Sequence[int], column: str | None = None,
                     value: Any = None):
        """A candidate slot list as an ``intp`` fancy-index array.

        When the slots are a posting-list bucket, pass its ``(column,
        value)`` so the conversion is cached until the next mutation.
        """
        if numpy_module() is None:
            return None
        if column is not None:
            key = (column, value)
            cached = self._np_posting_cache.get(key)
            if cached is not None:
                return cached
            array = _np.asarray(slots, dtype=_np.intp)
            try:
                self._np_posting_cache[key] = array
            except TypeError:  # unhashable binding value: skip the cache
                pass
            return array
        return _np.asarray(slots, dtype=_np.intp)

    def __repr__(self) -> str:
        return (
            f"ColumnStore(rows={len(self)}, dead={self.dead_count}, "
            f"postings={list(self.postings)})"
        )


#: Shared empty slot list for posting misses.
_EMPTY_SLOTS: list[int] = []


class ColumnarTable(Table):
    """A base table that keeps its data column-resident as it grows.

    The insert path appends to one value list per column and folds every
    value into the column's :class:`IncrementalColumnStats`, so table-level
    statistics (``min``/``max``/``distinct``) are O(1) reads instead of
    O(n) recomputes, and batch consumers can read whole columns without
    touching :class:`Row` objects.  Row objects are still materialized (the
    engines' dataflow is row-at-a-time at the boundary), so a
    ``ColumnarTable`` is behaviourally identical to a :class:`Table`.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[Sequence[Any]] | Sequence[Mapping[str, Any]] = (),
    ):
        self._columns: list[list[Any]] = [[] for _ in schema]
        self._column_stats = {
            column: IncrementalColumnStats(column) for column in schema.names
        }
        super().__init__(name, schema, rows)

    def insert(self, values: Sequence[Any] | Mapping[str, Any] | Row) -> Row:
        row = super().insert(values)
        names = self.schema.names
        for position, value in enumerate(row.values):
            self._columns[position].append(value)
            self._column_stats[names[position]].add(value)
        return row

    # -- columnar access -----------------------------------------------------------

    def column_values(self, column: str) -> Sequence[Any]:
        """The whole column as one value sequence (no row objects touched)."""
        return self._columns[self.schema.position(column)]

    def column_stats(self, column: str) -> IncrementalColumnStats:
        """The incrementally-maintained statistics of one column."""
        try:
            return self._column_stats[column]
        except KeyError:
            raise SchemaError(
                f"unknown column {column!r} of table {self.name!r}"
            ) from None

    def incremental_column_stats(self, column: str) -> IncrementalColumnStats | None:
        """Duck-typed hook for :func:`repro.storage.statistics.analyze_column`."""
        return self._column_stats.get(column)

    def batches(self, size: int) -> Iterator[ColumnBatch]:
        """The table's contents as column batches of at most ``size`` records."""
        if size < 1:
            raise SchemaError(f"batch size must be >= 1, got {size}")
        total = len(self)
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield ColumnBatch(
                self.schema,
                [column[start:stop] for column in self._columns],
                table=self.name,
            )

    def insert_batch(self, batch: ColumnBatch) -> int:
        """Append a whole :class:`ColumnBatch`; returns rows inserted."""
        count = 0
        for position in range(len(batch)):
            self.insert(batch.record(position))
            count += 1
        return count

    def distinct_values(self, column: str) -> set[Any]:
        stats = self._column_stats.get(column)
        if stats is not None:
            values = set(stats.counts)
            if stats.null_count:
                values.add(None)
            return values
        return super().distinct_values(column)

    def lookup(self, columns: Sequence[str], key: Sequence[Any]) -> list[Row]:
        """Equality lookup, pruned by the incremental min/max statistics.

        When any bound value provably falls outside its column's observed
        [min, max] range the scan fallback is skipped entirely — the same
        statistics feed the SteM's candidate selection.
        """
        for column, value in zip(columns, key):
            stats = self._column_stats.get(column)
            if stats is not None and stats.excludes(value):
                return []
        return super().lookup(columns, key)


def as_columnar(table: Table) -> ColumnarTable:
    """Copy a row-resident table into a :class:`ColumnarTable`."""
    if isinstance(table, ColumnarTable):
        return table
    clone = ColumnarTable(table.name, table.schema)
    for row in table:
        clone.insert(row)
    return clone
