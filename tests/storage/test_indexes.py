"""Tests for the hash index behind tables' key and secondary lookups."""

from hypothesis import given, settings, strategies as st

from repro.storage.indexes import HashIndex
from repro.storage.row import Row
from repro.storage.schema import Schema

SCHEMA = Schema.of("k:int", "v:int")


def row(k: int, v: int = 0) -> Row:
    return Row("T", SCHEMA, (k, v))


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex(("k",))
        index.insert(row(1, 10))
        index.insert(row(1, 11))
        index.insert(row(2, 20))
        assert sorted(r["v"] for r in index.lookup((1,))) == [10, 11]
        assert index.lookup((3,)) == []
        assert len(index) == 3

    def test_iteration_covers_all_rows(self):
        index = HashIndex(("k",))
        for i in range(10):
            index.insert(row(i, i))
        assert sorted(r["k"] for r in index) == list(range(10))

    def test_multi_column_key(self):
        index = HashIndex(("k", "v"))
        index.insert(row(1, 10))
        index.insert(row(1, 11))
        index.insert(row(1, 10))
        assert len(index.lookup((1, 10))) == 2
        assert len(index.lookup((1, 11))) == 1
        assert index.lookup((1,)) == []

    def test_lookup_returns_a_copy(self):
        index = HashIndex(("k",))
        index.insert(row(1, 10))
        index.lookup((1,)).clear()
        assert len(index.lookup((1,))) == 1

    def test_lookup_accepts_any_key_sequence(self):
        index = HashIndex(("k",))
        index.insert(row(6, 60))
        assert index.lookup([6]) == index.lookup((6,)) == [row(6, 60)]

    def test_null_key_values_are_indexed(self):
        index = HashIndex(("k",))
        index.insert(Row("T", SCHEMA, (None, 1)))
        assert [r["v"] for r in index.lookup((None,))] == [1]

    def test_repr_reports_rows_and_keys(self):
        index = HashIndex(("k", "v"))
        index.insert(row(1, 1))
        index.insert(row(1, 1))
        assert repr(index) == "HashIndex(key=k,v, rows=2, keys=1)"


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=20), max_size=60))
def test_hash_index_agrees_with_a_linear_scan(keys):
    """Property: every equality lookup returns exactly the scanned matches."""
    index = HashIndex(("k",))
    rows = [row(key, position) for position, key in enumerate(keys)]
    for stored in rows:
        index.insert(stored)
    for probe in range(21):
        from_index = sorted(r["v"] for r in index.lookup((probe,)))
        from_scan = sorted(r["v"] for r in rows if r["k"] == probe)
        assert from_index == from_scan
    assert len(index) == len(keys)


def test_key_of_positional_fast_path_tracks_schema():
    """key_of resolves positions once per schema and re-resolves on change."""
    index = HashIndex(("k",))
    first = row(1, 10)
    assert index.key_of(first) == (1,)
    reordered = Schema.of("v:int", "k:int")
    swapped = Row("T", reordered, (10, 2))
    assert index.key_of(swapped) == (2,)  # positions re-resolved, not stale
    assert index.key_of(first) == (1,)
