"""Property-based round-trip guarantees over hostile values.

Hypothesis drives arbitrary (and deliberately nasty) values through every
durability boundary — value codec, row codec, record framing, WAL files,
snapshot files, and a full SteM state snapshot/rebuild — asserting exact,
byte-for-byte reconstruction every time.  The durable formats must never be
merely "close enough": recovery correctness reduces to these identities.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.stem import SteM
from repro.core.tuples import Result
from repro.recovery.codec import (
    canonical_json,
    decode_row,
    decode_schema,
    decode_value,
    encode_row,
    encode_schema,
    encode_value,
    frame_record,
    parse_record,
)
from repro.recovery.manager import _make_emit_filter, identity_key
from repro.recovery.snapshot import SnapshotStore
from repro.recovery.wal import WriteAheadLog, replay_wal_file
from repro.storage.row import Row
from repro.storage.schema import Schema

# Scalars a row cell can legally hold, skewed toward the hostile end:
# NaN/infinities, -0.0, subnormals, integers past 2**53 (silently rounded by
# any float path), control characters, astral-plane text, raw bytes.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.text(max_size=20),
    st.binary(max_size=20),
)

values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=8,
)


def equivalent(a, b) -> bool:
    """Exact equality, distinguishing NaN==NaN and -0.0 vs 0.0."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            equivalent(x, y) for x, y in zip(a, b)
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class TestValueCodecProperties:
    @given(value=values)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_through_json_is_exact(self, value):
        wire = json.dumps(
            encode_value(value), separators=(",", ":"), sort_keys=True
        )
        assert equivalent(decode_value(json.loads(wire)), value)

    @given(value=values)
    @settings(max_examples=200, deadline=None)
    def test_canonical_text_is_deterministic(self, value):
        one = json.dumps(encode_value(value), sort_keys=True)
        two = json.dumps(encode_value(value), sort_keys=True)
        assert one == two

    @given(a=values, b=values)
    @settings(max_examples=200, deadline=None)
    def test_equal_values_share_canonical_text(self, a, b):
        # The exactly-once protocol keys acked emissions by canonical text;
        # two equivalent identities must never produce different keys.
        if equivalent(a, b):
            assert json.dumps(encode_value(a), sort_keys=True) == json.dumps(
                encode_value(b), sort_keys=True
            )


class TestRowAndFramingProperties:
    @given(cells=st.lists(scalars, min_size=1, max_size=5), rid=st.integers(0, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_row_round_trip(self, cells, rid):
        schema = Schema.of(*[f"c{i}:int" for i in range(len(cells))])
        row = Row("T", schema, tuple(cells), rid=rid)
        wire = json.loads(json.dumps(encode_row(row)))
        restored = decode_row(wire, "T", decode_schema(encode_schema(schema)))
        assert restored.rid == rid
        assert equivalent(restored.values, row.values)

    @given(payload=st.dictionaries(st.text(min_size=1, max_size=8), scalars, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_framed_record_round_trip(self, payload):
        body = {"k": "emit", "p": encode_value(tuple(payload.items()))}
        assert parse_record(frame_record(body)) == body

    @given(
        payload=st.text(max_size=40),
        cut=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_strict_prefix_is_rejected(self, payload, cut):
        line = frame_record({"k": "emit", "id": encode_value(payload)})
        if cut < len(line):
            assert parse_record(line[:cut]) is None


class TestWalAndSnapshotProperties:
    @given(
        ids=st.lists(values, min_size=1, max_size=12),
        window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_wal_replay_returns_exactly_what_was_flushed(
        self, tmp_path_factory, ids, window
    ):
        # Hostile identities acked, the owner flushing every ``window``
        # acks: replay returns every key, in ack order.
        path = str(tmp_path_factory.mktemp("wal") / "wal-000001.log")
        keys = [canonical_json(encode_value(identity)) for identity in ids]
        with WriteAheadLog(path) as wal:
            for i, key in enumerate(keys, start=1):
                wal.log_emit("q0", key)
                if i % window == 0:
                    wal.flush()
        records, torn = replay_wal_file(path)
        assert torn == 0
        replayed = [key for record in records for key in record["ids"]]
        assert replayed == keys
        for key, identity in zip(replayed, ids):
            assert equivalent(decode_value(json.loads(key)), identity)

    @given(
        ids=st.lists(values, min_size=1, max_size=8),
        torn_bytes=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_round_trip_and_torn_fallback(
        self, tmp_path_factory, ids, torn_bytes
    ):
        directory = str(tmp_path_factory.mktemp("snap"))
        store = SnapshotStore(directory)
        payload = {"rows": [encode_value(v) for v in ids]}
        store.write(payload)
        store.write(payload, torn_bytes=torn_bytes)
        loaded = SnapshotStore(directory).load_latest()
        # Either the tear left a parseable file (tiny payloads) or the
        # loader fell back — never garbage, never None.
        assert loaded is not None
        for wire, original in zip(loaded["rows"], ids):
            assert equivalent(decode_value(wire), original)


def walked_identity_key(tuple_) -> str:
    """The identity key as a stack walk over the whole identity wrote it:
    the reference the flat check must agree with, byte for byte."""
    identity = tuple_.identity()
    stack = [identity]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack.extend(item)
        elif type(item) is not int and type(item) is not str:
            return canonical_json(encode_value(identity))
    return repr(identity)


class TestIdentityKeys:
    @given(
        rows=st.lists(st.tuples(values, values), min_size=1, max_size=3),
        ints=st.lists(st.tuples(st.integers(), st.text(max_size=4)), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_key_is_the_walked_key(self, rows, ints):
        schema = Schema.of("c0:int", "c1:int")
        for cells in (rows, ints):
            result = Result(
                {f"a{i}": Row(f"t{i}", schema, pair) for i, pair in enumerate(cells)}
            )
            assert identity_key(result) == walked_identity_key(result)

    def test_the_filter_steps_aside_once_every_tail_ack_is_suppressed(self):
        schema = Schema.of("c0:int", "c1:int")
        results = [Result({"a": Row("t", schema, (i % 2, 0))}) for i in range(5)]
        eddy = SimpleNamespace()
        acked = {identity_key(results[0]): 2, identity_key(results[1]): 1}
        eddy.emit_filter = _make_emit_filter(acked, eddy)
        kept = []
        for result in results:
            if eddy.emit_filter is None:
                kept.append(result)
            elif eddy.emit_filter(result):
                kept.append(result)
        # Results 0, 1 and 2 are suppressed (0 and 2 share an identity);
        # the filter is gone before result 3 is offered.
        assert kept == results[3:] and eddy.emit_filter is None


class TestStemStateRoundTrip:
    @given(
        cells=st.lists(
            st.tuples(scalars, scalars), min_size=1, max_size=15, unique_by=repr
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_stem_matches_byte_for_byte(self, cells):
        schema = Schema.of("k:int", "v:int")
        original = SteM("T", ["T"], join_columns=["k"])
        for i, (k, v) in enumerate(cells):
            row = Row("T", schema, (k, v), rid=i)
            original.build(row, float(i + 1))

        # Snapshot through the codec (what CheckpointManager persists)...
        entries = [
            (json.loads(json.dumps(encode_row(row))), ts)
            for row, ts in original.state_entries()
        ]
        # ...and rebuild an empty SteM from the decoded entries.
        rebuilt = SteM("T", ["T"], join_columns=["k"])
        for wire, ts in entries:
            rebuilt.build(decode_row(wire, "T", schema), ts)

        restored = rebuilt.state_entries()
        for (row_a, ts_a), (row_b, ts_b) in zip(
            original.state_entries(), restored
        ):
            assert ts_a == ts_b
            assert row_a.rid == row_b.rid
            assert equivalent(row_a.values, row_b.values)
        assert len(restored) == len(original.state_entries())
        # The replay saw no duplicates: state_entries is already deduplicated.
        assert rebuilt.stats["duplicates"] == 0
        assert rebuilt.stats["builds"] == len(restored)


class TestQueryUnparseProperties:
    """WAL admission records persist queries as SQL — the unparse must be a
    parse fixpoint for every aggregate shape the grammar admits."""

    _group_columns = st.lists(
        st.sampled_from(["a", "b", "c"]), unique=True, max_size=3
    )
    _specs = st.lists(
        st.tuples(
            st.sampled_from(["count", "sum", "avg", "min", "max"]),
            st.sampled_from(["key", "a", "val"]),
        ),
        min_size=1,
        max_size=4,
        unique=True,
    )
    _comparisons = st.lists(
        st.tuples(
            st.sampled_from(["key", "a"]),
            st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
            st.integers(min_value=-1000, max_value=1000),
        ),
        max_size=2,
        unique=True,
    )

    @given(
        group_columns=_group_columns,
        specs=_specs,
        comparisons=_comparisons,
        star_count=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_aggregate_query_round_trips(
        self, group_columns, specs, comparisons, star_count
    ):
        from repro.query.expressions import ColumnRef, Literal
        from repro.query.parser import parse_query
        from repro.query.predicates import Comparison
        from repro.query.query import AggregateSpec, Query, TableRef
        from repro.recovery.codec import query_to_sql

        aggregates = tuple(
            AggregateSpec(func, ColumnRef("R", column))
            for func, column in specs
        )
        if star_count:
            aggregates = (AggregateSpec("count", None),) + aggregates
        query = Query(
            tables=(TableRef.of("R"),),
            predicates=tuple(
                Comparison(ColumnRef("R", column), op, Literal(value))
                for column, op, value in comparisons
            ),
            group_by=tuple(
                ColumnRef("R", column) for column in group_columns
            ),
            aggregates=aggregates,
        )

        rendered = query_to_sql(query)
        reparsed = parse_query(rendered)
        assert reparsed.group_by == query.group_by
        assert reparsed.aggregates == query.aggregates
        assert {str(p) for p in reparsed.predicates} == {
            str(p) for p in query.predicates
        }
        # And the unparse is a fixpoint: render(parse(render(q))) == render(q).
        assert query_to_sql(reparsed) == rendered
