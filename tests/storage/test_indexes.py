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

    def test_remove(self):
        index = HashIndex(("k",))
        target = row(5, 50)
        index.insert(target)
        index.insert(row(5, 51))
        assert index.remove(target)
        assert not index.remove(target)
        assert [r["v"] for r in index.lookup((5,))] == [51]

    def test_contains(self):
        index = HashIndex(("k",))
        index.insert(row(3, 30))
        assert index.contains(row(3, 30))
        assert not index.contains(row(3, 31))

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

    def test_keys_are_distinct_and_drop_an_emptied_bucket(self):
        index = HashIndex(("k",))
        lone = row(2, 20)
        for stored in (row(1, 10), row(1, 11), lone):
            index.insert(stored)
        assert sorted(index.keys()) == [(1,), (2,)]
        index.remove(lone)
        assert list(index.keys()) == [(1,)]

    def test_remove_of_an_absent_row_changes_nothing(self):
        index = HashIndex(("k",))
        index.insert(row(1, 10))
        assert not index.remove(row(9, 90))  # no bucket for the key
        assert not index.remove(row(1, 99))  # bucket, but not the row
        assert len(index) == 1

    def test_remove_takes_one_of_equal_rows(self):
        index = HashIndex(("k",))
        index.insert(row(4, 40))
        index.insert(row(4, 40))
        assert index.remove(row(4, 40))
        assert len(index) == 1
        assert index.contains(row(4, 40))

    def test_lookup_returns_a_copy(self):
        index = HashIndex(("k",))
        index.insert(row(1, 10))
        index.lookup((1,)).clear()
        assert len(index.lookup((1,))) == 1

    def test_lookup_accepts_any_key_sequence(self):
        index = HashIndex(("k",))
        index.insert(row(6, 60))
        assert index.lookup([6]) == index.lookup((6,)) == [row(6, 60)]

    def test_contains_on_an_empty_index(self):
        assert not HashIndex(("k",)).contains(row(1, 1))

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


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 2)), max_size=60
    )
)
def test_inserts_and_removes_track_a_list_model(operations):
    """Property: after any insert/remove sequence the index holds the model's rows."""
    index = HashIndex(("k",))
    model: list[Row] = []
    for is_insert, key, value in operations:
        target = row(key, value)
        if is_insert:
            index.insert(target)
            model.append(target)
        else:
            assert index.remove(target) == (target in model)
            if target in model:
                model.remove(target)
    assert len(index) == len(model)
    assert sorted(r.values for r in index) == sorted(r.values for r in model)
    assert sorted(index.keys()) == sorted({(r["k"],) for r in model})


def test_key_of_positional_fast_path_tracks_schema():
    """key_of resolves positions once per schema and re-resolves on change."""
    index = HashIndex(("k",))
    first = row(1, 10)
    assert index.key_of(first) == (1,)
    reordered = Schema.of("v:int", "k:int")
    swapped = Row("T", reordered, (10, 2))
    assert index.key_of(swapped) == (2,)  # positions re-resolved, not stale
    assert index.key_of(first) == (1,)
