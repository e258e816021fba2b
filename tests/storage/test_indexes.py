"""Tests for the in-memory index structures behind tables and SteMs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.indexes import (
    AdaptiveIndex,
    HashIndex,
    ListIndex,
    SortedIndex,
    build_index,
)
from repro.storage.row import Row
from repro.storage.schema import Schema

SCHEMA = Schema.of("k:int", "v:int")


def row(k: int, v: int = 0) -> Row:
    return Row("T", SCHEMA, (k, v))


INDEX_KINDS = ["hash", "sorted", "list", "adaptive"]


@pytest.mark.parametrize("kind", INDEX_KINDS)
class TestAllIndexKinds:
    def test_insert_and_lookup(self, kind):
        index = build_index(kind, ("k",))
        index.insert(row(1, 10))
        index.insert(row(1, 11))
        index.insert(row(2, 20))
        assert sorted(r["v"] for r in index.lookup((1,))) == [10, 11]
        assert index.lookup((3,)) == []
        assert len(index) == 3

    def test_remove(self, kind):
        index = build_index(kind, ("k",))
        target = row(5, 50)
        index.insert(target)
        index.insert(row(5, 51))
        assert index.remove(target)
        assert not index.remove(target)
        assert [r["v"] for r in index.lookup((5,))] == [51]

    def test_lookup_row_uses_key_columns(self, kind):
        index = build_index(kind, ("k",))
        index.insert(row(7, 70))
        probe = row(7, 999)
        assert [r["v"] for r in index.lookup_row(probe)] == [70]

    def test_contains(self, kind):
        index = build_index(kind, ("k",))
        index.insert(row(3, 30))
        assert index.contains(row(3, 30))
        assert not index.contains(row(3, 31))

    def test_iteration_covers_all_rows(self, kind):
        index = build_index(kind, ("k",), rows=[row(i, i) for i in range(10)])
        assert sorted(r["k"] for r in index) == list(range(10))


class TestSortedIndex:
    def test_range_lookup_inclusive(self):
        index = SortedIndex(("k",))
        for i in range(10):
            index.insert(row(i, i * 10))
        values = [r["k"] for r in index.range_lookup((3,), (6,))]
        assert values == [3, 4, 5, 6]

    def test_range_lookup_exclusive_and_open_ended(self):
        index = SortedIndex(("k",))
        for i in range(5):
            index.insert(row(i))
        assert [r["k"] for r in index.range_lookup((1,), (3,), include_low=False)] == [2, 3]
        assert [r["k"] for r in index.range_lookup(None, (2,))] == [0, 1, 2]
        assert [r["k"] for r in index.range_lookup((3,), None)] == [3, 4]

    def test_min_max_keys(self):
        index = SortedIndex(("k",))
        assert index.min_key() is None and index.max_key() is None
        index.insert(row(4))
        index.insert(row(2))
        assert index.min_key() == (2,) and index.max_key() == (4,)

    def test_iteration_is_sorted(self):
        index = SortedIndex(("k",))
        for value in [5, 1, 3, 2, 4]:
            index.insert(row(value))
        assert [r["k"] for r in index] == [1, 2, 3, 4, 5]


class TestAdaptiveIndex:
    def test_upgrades_after_threshold(self):
        index = AdaptiveIndex(("k",), switch_threshold=4)
        assert not index.upgraded
        for i in range(3):
            index.insert(row(i))
        assert not index.upgraded
        index.insert(row(3))
        assert index.upgraded
        assert isinstance(index.implementation, HashIndex)
        # Lookups still work after the upgrade.
        assert [r["k"] for r in index.lookup((2,))] == [2]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AdaptiveIndex(("k",), switch_threshold=0)


def test_build_index_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_index("btree-on-disk", ("k",))


def test_list_index_is_insertion_ordered():
    index = ListIndex(("k",))
    for value in [3, 1, 2]:
        index.insert(row(value))
    assert [r["k"] for r in index] == [3, 1, 2]


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=20), max_size=60))
def test_hash_and_sorted_indexes_agree(keys):
    """Property: hash and sorted indexes answer equality lookups identically."""
    hash_index = HashIndex(("k",))
    sorted_index = SortedIndex(("k",))
    for position, key in enumerate(keys):
        hash_index.insert(row(key, position))
        sorted_index.insert(row(key, position))
    for probe in range(21):
        from_hash = sorted(r["v"] for r in hash_index.lookup((probe,)))
        from_sorted = sorted(r["v"] for r in sorted_index.lookup((probe,)))
        assert from_hash == from_sorted
    assert len(hash_index) == len(sorted_index) == len(keys)


def test_key_of_positional_fast_path_tracks_schema():
    """key_of resolves positions once per schema and re-resolves on change."""
    index = HashIndex(("k",))
    first = row(1, 10)
    assert index.key_of(first) == (1,)
    reordered = Schema.of("v:int", "k:int")
    swapped = Row("T", reordered, (10, 2))
    assert index.key_of(swapped) == (2,)  # positions re-resolved, not stale
    assert index.key_of(first) == (1,)
