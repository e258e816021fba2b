"""Exact serialization for durable state: values, rows, records, queries.

Everything the durability layer writes must read back *byte-for-byte
equivalent*: restored SteM contents have to probe identically, and the
exactly-once protocol compares result identities across process lifetimes.
Plain JSON cannot carry the hostile values the engines legitimately store —
``NaN``/``±inf`` (not valid JSON), ``-0.0`` (sign lost by many readers),
``bool`` vs ``int`` (bool *is* an int in Python), ``bytes`` (no JSON type),
``2**53 ± 1`` (exact in Python, lossy through any float path) — so scalars
go through a tagged codec:

===========  ==========================================================
tag          representation
===========  ==========================================================
(untagged)   ``str``, ``int`` and JSON-safe floats pass through as-is
             (Python's json emits exact big ints, and floats whose repr
             round-trips)
``f``        float via ``float.hex()`` — exact for NaN, ±inf, -0.0 and
             every finite double
``B``        bool (checked *before* int: bool subclasses int)
``b``        bytes via ``bytes.hex()``
``t``        tuple/list of encoded items
``n``        None inside a tagged context
===========  ==========================================================

Records (WAL lines and snapshot payloads) are framed as
``crc32-hex SPACE compact-json NEWLINE``; a torn tail — a partial line from
a crash mid-write — fails the CRC (or has no newline) and is truncated on
replay instead of poisoning recovery.
"""

from __future__ import annotations

import json
import math
import zlib
from typing import Any, Iterable, Mapping

from repro.errors import ExecutionError
from repro.core.tuples import EOTTuple, QTuple
from repro.query.expressions import ColumnRef, Literal
from repro.query.layout import bit_positions
from repro.query.predicates import Comparison, InList, Predicate
from repro.query.query import Query
from repro.storage.row import Row
from repro.storage.schema import Column, DataType, Schema

__all__ = [
    "decode_item",
    "decode_row",
    "decode_schema",
    "decode_value",
    "encode_item",
    "encode_row",
    "encode_schema",
    "encode_value",
    "frame_record",
    "frame_record_bytes",
    "parse_record",
    "query_to_sql",
]


# -- scalar values -----------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one stored value into its tagged-JSON representation."""
    if value is None:
        return None
    kind = type(value)
    if kind is bool:
        # Must precede the int check: bool subclasses int, and a restored
        # True must compare equal *and* hash equal to the original — which
        # an untagged 1 would too, but stats/keys would change type.
        return ["B", bool(value)]
    if kind is int:
        # json emits arbitrary-precision ints exactly (2**53±1, ±2**63).
        return value
    if kind is float:
        if math.isfinite(value) and repr(value) != "-0.0":
            # repr round-trips finite doubles exactly; keep the common case
            # human-readable.  -0.0 is finite but some JSON readers drop the
            # sign, so it rides the hex path with NaN/±inf.
            return ["f", repr(value)]
        return ["f", float(value).hex()]
    if kind is str:
        return value
    if kind is bytes:
        return ["b", value.hex()]
    if kind in (tuple, list):
        return ["t", [encode_value(item) for item in value]]
    raise ExecutionError(
        f"cannot durably encode a value of type {kind.__name__!r}: {value!r}"
    )


def decode_value(encoded: Any) -> Any:
    """Invert :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (str, int)):
        return encoded
    if isinstance(encoded, list):
        tag = encoded[0]
        if tag == "f":
            text = encoded[1]
            if "x" in text or "n" in text:
                # The hex form (0x...p±e), nan, or ±inf; repr-form finite
                # floats never contain these characters.  fromhex must not
                # see repr text — it would read "1.5" as hex 1.3125.
                return float.fromhex(text)
            return float(text)
        if tag == "B":
            return bool(encoded[1])
        if tag == "b":
            return bytes.fromhex(encoded[1])
        if tag == "t":
            return tuple(decode_value(item) for item in encoded[1])
        if tag == "n":
            return None
        raise ExecutionError(f"unknown value tag {tag!r} in durable record")
    raise ExecutionError(f"cannot decode durable value {encoded!r}")


# -- schemas and rows --------------------------------------------------------------


def encode_schema(schema: Schema) -> dict:
    """Encode a table schema (column names, dtypes, nullability, key)."""
    return {
        "columns": [
            [column.name, column.dtype.value, column.nullable]
            for column in schema.columns
        ],
        "key": list(schema.key),
    }


def decode_schema(encoded: Mapping[str, Any]) -> Schema:
    """Invert :func:`encode_schema`."""
    columns = tuple(
        Column(name=name, dtype=DataType(dtype), nullable=bool(nullable))
        for name, dtype, nullable in encoded["columns"]
    )
    return Schema(columns=columns, key=tuple(encoded["key"]))


def encode_row(row: Row) -> dict:
    """Encode one base-table row (schema stored separately, per table).

    Rows of plain ints/strs/None — the overwhelmingly common case — skip
    the per-value codec entirely: those values are their own encoding
    (and ``type(True) is bool``, so bools cannot slip through the ``is
    int`` check into the untagged form).  This path runs once per
    non-duplicate build *and* once per stored row per snapshot, which
    makes it the hottest encoder in the durability layer.
    """
    values = row.values
    for value in values:
        kind = type(value)
        if kind is int or kind is str or value is None:
            continue
        return {
            "v": [encode_value(item) for item in values],
            "rid": row.rid,
        }
    return {"v": list(values), "rid": row.rid}


def decode_row(encoded: Mapping[str, Any], table: str, schema: Schema) -> Row:
    """Invert :func:`encode_row` against the table's decoded schema."""
    return Row(
        table=table,
        schema=schema,
        values=tuple(decode_value(value) for value in encoded["v"]),
        rid=int(encoded["rid"]),
    )


# -- dataflow items ----------------------------------------------------------------


def encode_item(item: QTuple | EOTTuple) -> dict:
    """Encode one routable held by a running dataflow (a checkpoint's cut).

    A :class:`QTuple` carries every TupleState slot, with the masks spelt as
    alias names, predicate ids and the sorted names of the visited modules:
    alias and visit bits are assigned per layout, names are not.  The
    tuple id is left out: the restored tuple draws a fresh one.
    """
    if isinstance(item, EOTTuple):
        return {
            "eot": [item.table, item.alias, item.am_name, list(item.bound_columns)],
            "vals": encode_value(tuple(item.bound_values)),
        }
    return {
        "rows": [
            [alias, row.table, encode_row(row), encode_value(timestamp)]
            for alias, row, timestamp in zip(item._aliases, item.rows, item.build_timestamps)
        ],
        "done": bit_positions(item.done_mask),
        "built": sorted(item.built),
        "resolved": sorted(item.resolved),
        "exhausted": sorted(item.exhausted),
        "visits": sorted(item.visits),
        "stop": item.stop_stem_probes,
        "pc": item.probe_completion_alias,
        "prio": encode_value(item.priority),
        "src": item.source,
        "q": item.query_id,
        "at": encode_value(item.created_at),
        "failed": item.failed,
    }


def decode_item(encoded: Mapping[str, Any], layout, schema_of, modules) -> QTuple | EOTTuple:
    """Invert :func:`encode_item` into the restored query's dataflow.

    ``layout`` is the query's compiled layout, ``schema_of(table)`` the
    catalog's schema for a base table and ``modules`` the query's module
    names.  A name the query does not have (alias, predicate id, module)
    raises :class:`~repro.errors.ExecutionError`: a piece of the cut that
    cannot be placed must not be dropped.
    """
    if "eot" in encoded:
        table, alias, am_name, columns = encoded["eot"]
        return EOTTuple(table, alias, am_name, tuple(columns), decode_value(encoded["vals"]))
    names = set(encoded["built"]) | set(encoded["resolved"]) | set(encoded["exhausted"])
    names.update(alias for alias, _, _, _ in encoded["rows"])
    if encoded["pc"] is not None:
        names.add(encoded["pc"])
    unknown = sorted(
        [name for name in names if name not in layout.alias_bits]
        + [str(i) for i in encoded["done"] if i not in layout.predicate_bits]
        + [name for name in encoded["visits"] if name not in modules]
    )
    if unknown:
        raise ExecutionError(
            f"an in-flight tuple of the cut names aliases, predicate ids or "
            f"modules the restored query does not have: {unknown}"
        )
    item = QTuple(
        {
            alias: decode_row(row, table, schema_of(table))
            for alias, table, row, _ in encoded["rows"]
        },
        {alias: decode_value(ts) for alias, _, _, ts in encoded["rows"]},
        done=encoded["done"],
        source=encoded["src"],
        priority=decode_value(encoded["prio"]),
        created_at=decode_value(encoded["at"]),
        query_id=encoded["q"],
        layout=layout,
    )
    item.built_mask = layout.mask_of(encoded["built"])
    item.resolved_mask = layout.mask_of(encoded["resolved"])
    item.exhausted_mask = layout.mask_of(encoded["exhausted"])
    for name in encoded["visits"]:
        item.record_visit(name)
    item.stop_stem_probes = encoded["stop"]
    item.probe_completion_alias = encoded["pc"]
    item.failed = encoded["failed"]
    return item


# -- record framing ----------------------------------------------------------------

#: Cached canonical encoder: ``json.dumps`` with non-default separators
#: builds a fresh ``JSONEncoder`` per call, which dominates the WAL append
#: hot path.  Sorted keys + compact separators make the text canonical, so
#: equal bodies always frame (and CRC) identically.
_std_canonical = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

try:  # pragma: no cover - exercised whenever orjson is installed
    import orjson as _orjson
except ImportError:  # pragma: no cover
    _orjson = None

if _orjson is not None:
    _ORJSON_SORT = _orjson.OPT_SORT_KEYS

    def canonical_json(body: Any) -> str:
        """Canonical compact JSON text (sorted keys), C-accelerated.

        orjson rejects ints outside the 64-bit range, which the codec must
        support (2**70 round-trips exactly through stdlib json); those rare
        bodies deterministically fall back to the stdlib encoder, so equal
        bodies still always produce equal text.
        """
        try:
            return _orjson.dumps(body, option=_ORJSON_SORT).decode("utf-8")
        except TypeError:
            return _std_canonical(body)

else:  # pragma: no cover - stdlib-only environments
    canonical_json = _std_canonical


def frame_record(body: Mapping[str, Any]) -> str:
    """One durable record line: ``crc32-hex SPACE compact-json NEWLINE``."""
    text = canonical_json(body)
    crc = zlib.crc32(text.encode("utf-8"))
    return f"{crc:08x} {text}\n"


if _orjson is not None:

    def frame_record_bytes(body: Mapping[str, Any]) -> bytes:
        """:func:`frame_record` straight to UTF-8 bytes.

        The WAL hot path writes bytes to a raw descriptor; orjson already
        produces bytes, so this skips the decode/re-encode round-trip the
        str form would pay.  Output is byte-identical to
        ``frame_record(body).encode("utf-8")``.
        """
        try:
            text = _orjson.dumps(body, option=_ORJSON_SORT)
        except TypeError:
            text = _std_canonical(body).encode("utf-8")
        return b"%08x " % zlib.crc32(text) + text + b"\n"

else:  # pragma: no cover - stdlib-only environments

    def frame_record_bytes(body: Mapping[str, Any]) -> bytes:
        return frame_record(body).encode("utf-8")


def parse_record(line: str) -> dict | None:
    """Parse one framed line; None when the line is torn or corrupt.

    A line qualifies only when it is newline-terminated, carries a valid
    CRC over its JSON body, and that body parses — anything else is the
    partial tail of a crashed write (or bit rot) and must not be replayed.
    """
    if not line.endswith("\n"):
        return None
    try:
        crc_text, _, text = line[:-1].partition(" ")
        if len(crc_text) != 8:
            return None
        crc = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(text.encode("utf-8")) != crc:
        return None
    try:
        body = json.loads(text)
    except ValueError:
        return None
    return body if isinstance(body, dict) else None


# -- query unparsing ---------------------------------------------------------------


def _literal_sql(value: Any) -> str:
    """Render a literal so :func:`repro.query.parser.parse_query` reads the
    same value back; raise for values the grammar cannot express."""
    if isinstance(value, bool):
        raise ExecutionError(
            "cannot serialize a boolean literal to SQL (the parser has no "
            "boolean literal form); durable admissions must avoid it"
        )
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ExecutionError(
                f"cannot serialize non-finite float literal {value!r} to SQL"
            )
        return repr(value)
    if isinstance(value, str):
        if "'" in value or "\n" in value:
            raise ExecutionError(
                f"cannot serialize string literal {value!r} to SQL "
                "(embedded quote or newline)"
            )
        return f"'{value}'"
    raise ExecutionError(
        f"cannot serialize literal {value!r} of type "
        f"{type(value).__name__!r} to SQL"
    )


def _expression_sql(expression) -> str:
    if isinstance(expression, ColumnRef):
        return f"{expression.alias}.{expression.column}"
    if isinstance(expression, Literal):
        return _literal_sql(expression.value)
    raise ExecutionError(
        f"cannot serialize expression {expression!r} to SQL"
    )


def _predicate_sql(predicate: Predicate) -> str:
    if isinstance(predicate, Comparison):
        return (
            f"{_expression_sql(predicate.left)} {predicate.op} "
            f"{_expression_sql(predicate.right)}"
        )
    if isinstance(predicate, InList):
        rendered = ", ".join(
            _literal_sql(value) for value in sorted(predicate.values, key=repr)
        )
        return f"{predicate.column} IN ({rendered})"
    raise ExecutionError(
        f"cannot serialize predicate {predicate!r} to SQL: only comparisons "
        "and IN lists (everything parse_query produces) round-trip through "
        "the durable log"
    )


def query_to_sql(query: Query) -> str:
    """Unparse a query back to SQL the parser reads to an equivalent query.

    The inverse of :func:`repro.query.parser.parse_query` over its own
    output: table references (with aliases), comparison and IN-list
    predicates, explicit projections, and GROUP BY aggregate select lists
    all round-trip — re-parsing the rendered text yields the same tables,
    predicates (with identical deterministic ids), projections, group
    columns and aggregate specs.  Queries built programmatically
    with constructs the grammar cannot express (conjunction objects,
    exotic literals) raise :class:`~repro.errors.ExecutionError` — such
    admissions cannot be made durable.
    """
    tables = ", ".join(str(ref) for ref in query.tables)
    if query.is_aggregate:
        # GROUP BY queries: group columns first (the parser requires every
        # plain select item to appear in GROUP BY), then the aggregate
        # calls in spec order — both re-parse to identical tuples.
        items = [str(column) for column in query.group_by]
        items.extend(spec.label for spec in query.aggregates)
        select = ", ".join(items)
    elif query.projections:
        select = ", ".join(str(column) for column in query.projections)
    else:
        select = "*"
    sql = f"SELECT {select} FROM {tables}"
    if query.predicates:
        sql += " WHERE " + " AND ".join(
            _predicate_sql(predicate) for predicate in query.predicates
        )
    if query.group_by:
        # Global aggregates (``SELECT count(*) FROM R``) have an empty
        # GROUP BY clause — rendering the keyword would be a syntax error.
        sql += " GROUP BY " + ", ".join(str(column) for column in query.group_by)
    return sql


def encode_coverage(
    scan_complete: Iterable[str],
    eot_keys: Mapping[tuple[str, ...], Iterable[tuple[Any, ...]]],
) -> dict:
    """Encode a SteM's EOT coverage state (see ``SteM.coverage_state``)."""
    return {
        "scans": sorted(scan_complete),
        "keys": [
            [list(columns), [encode_value(tuple(value)) for value in values]]
            for columns, values in eot_keys.items()
        ],
    }


def decode_coverage(encoded: Mapping[str, Any]) -> tuple[set, dict]:
    """Invert :func:`encode_coverage`."""
    return (
        set(encoded["scans"]),
        {
            tuple(columns): {decode_value(value) for value in values}
            for columns, values in encoded["keys"]
        },
    )
