"""Unit tests for the columnar storage layer and incremental statistics."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.storage import (
    ColumnBatch,
    ColumnStore,
    ColumnarTable,
    IncrementalColumnStats,
    Row,
    Schema,
    Table,
    analyze_column,
    as_columnar,
    columnar_backend,
    numpy_available,
)
from repro.storage.columns import (
    FLOAT_EXACT_INT,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    _classify,
)
from repro.storage.datagen import make_source_r, make_uniform_table

SCHEMA = Schema.of("x:int", "y:int")


def srow(x, y, rid=-1):
    return Row("S", SCHEMA, (x, y), rid=rid)


class TestColumnBatch:
    def test_from_rows_roundtrip(self):
        rows = [srow(i, i * 2, rid=i) for i in range(4)]
        batch = ColumnBatch.from_rows(rows)
        assert len(batch) == 4
        assert batch.column("x") == (0, 1, 2, 3)
        assert batch.column("y") == (0, 2, 4, 6)
        assert batch.record(2) == (2, 4)
        back = batch.to_rows()
        assert [r.values for r in back] == [r.values for r in rows]
        assert back[0].table == "S"

    def test_from_records_and_arity_checks(self):
        batch = ColumnBatch.from_records(SCHEMA, [(1, 2), (3, 4)], table="S")
        assert batch.column("x") == (1, 3)
        with pytest.raises(SchemaError):
            ColumnBatch.from_records(SCHEMA, [(1, 2, 3)])
        with pytest.raises(SchemaError):
            ColumnBatch(SCHEMA, [(1, 2)])  # one column, schema has two
        with pytest.raises(SchemaError):
            ColumnBatch(SCHEMA, [(1, 2), (3,)])  # unequal lengths
        with pytest.raises(SchemaError):
            ColumnBatch.from_rows([])

    def test_empty_batch(self):
        batch = ColumnBatch.from_records(SCHEMA, [])
        assert len(batch) == 0
        assert batch.to_rows() == []


class TestClassify:
    def test_small_ints_stay_int(self):
        kind, exact = KIND_INT, True
        for value in (0, 1, -5, True, 2**53):
            kind, exact = _classify(kind, value, exact)
        assert (kind, exact) == (KIND_INT, True)

    def test_float_promotes(self):
        assert _classify(KIND_INT, 1.5, True) == (KIND_FLOAT, True)

    def test_none_demotes_to_obj(self):
        assert _classify(KIND_INT, None, True)[0] == KIND_OBJ
        assert _classify(KIND_OBJ, 1, True)[0] == KIND_OBJ  # sticky

    def test_huge_int_demotes(self):
        assert _classify(KIND_INT, 2**62 + 1, True)[0] == KIND_OBJ

    def test_inexact_int_blocks_float_promotion(self):
        # An int beyond 2**53 stays int-kinded but poisons exactness ...
        kind, exact = _classify(KIND_INT, FLOAT_EXACT_INT + 1, True)
        assert (kind, exact) == (KIND_INT, False)
        # ... so a later float demotes the column to obj, not float.
        assert _classify(kind, 0.5, exact)[0] == KIND_OBJ

    def test_nan_demotes(self):
        assert _classify(KIND_FLOAT, float("nan"), True)[0] == KIND_OBJ

    def test_string_demotes(self):
        assert _classify(KIND_INT, "a", True)[0] == KIND_OBJ


class TestColumnStore:
    def make_store(self, n=6):
        store = ColumnStore(SCHEMA, indexed_columns=("x",))
        rows = [srow(i % 3, i, rid=i) for i in range(n)]
        for i, row in enumerate(rows):
            store.append(row, float(i + 1))
        return store, rows

    def test_append_postings_and_live_slots(self):
        store, rows = self.make_store()
        assert len(store) == 6
        assert list(store.live_slots()) == list(range(6))
        assert store.posting_slots("x", 0) == [0, 3]
        assert store.posting_slots("x", 99) == []
        assert store.posting_slots("y", 1) is None  # no posting list
        assert store.slot_of[rows[4]] == 4

    def test_evict_tombstones_and_unlinks_postings(self):
        store, rows = self.make_store()
        assert store.evict(rows[0])
        assert not store.evict(rows[0])  # already gone
        assert len(store) == 5
        assert store.posting_slots("x", 0) == [3]
        assert 0 not in list(store.live_slots())
        assert store.column_stats["y"].count == 5

    def test_compaction_renumbers_and_rebuilds(self):
        store = ColumnStore(SCHEMA, indexed_columns=("x",))
        rows = [srow(i % 5, i, rid=i) for i in range(200)]
        for i, row in enumerate(rows):
            store.append(row, float(i))
        for row in rows[:150]:
            store.evict(row)
        assert len(store.rows) < 200  # compaction dropped tombstoned slots
        assert store.dead_count * 2 <= len(store.rows)
        assert len(store) == 50
        survivors = [store.rows[slot] for slot in store.live_slots()]
        assert survivors == rows[150:]  # insertion order preserved
        # Postings point at the renumbered slots.
        for value in range(5):
            for slot in store.posting_slots("x", value):
                assert store.cols[0][slot] == value

    def test_unhashable_probe_value_misses_postings(self):
        store, _ = self.make_store()
        assert store.posting_slots("x", [1, 2]) == []

    def test_add_and_drop_posting_column_backfills(self):
        store, _ = self.make_store()
        store.add_posting_column("y")
        assert store.posting_slots("y", 4) == [4]
        store.drop_posting_column("y")
        assert store.posting_slots("y", 4) is None

    def test_stats_track_appends_and_evicts(self):
        store, rows = self.make_store()
        stats = store.column_stats["y"]
        assert (stats.min_value, stats.max_value) == (0, 5)
        store.evict(rows[5])
        assert stats.max_value == 4

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend absent")
    def test_numpy_arrays_follow_mutations(self):
        import numpy as np

        store, rows = self.make_store()
        assert store.np_column(1).tolist() == [0, 1, 2, 3, 4, 5]
        assert store.np_ts().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        store.append(srow(0, 6, rid=6), 7.0)
        assert store.np_column(1).tolist()[-1] == 6  # version bump resyncs
        index = store.np_index_for(store.posting_slots("x", 0), "x", 0)
        assert index.dtype == np.intp
        assert store.np_index_for(store.posting_slots("x", 0), "x", 0) is index
        store.append(srow(0, 7, rid=7), 8.0)  # mutation invalidates the cache
        fresh = store.np_index_for(store.posting_slots("x", 0), "x", 0)
        assert fresh is not index

    @pytest.mark.skipif(not numpy_available(), reason="numpy backend absent")
    def test_obj_column_has_no_array(self):
        store = ColumnStore(SCHEMA)
        store.append(srow(None, 1), 1.0)
        assert store.np_column(0) is None
        assert store.np_column(1).tolist() == [1]


class TestBackendSelection:
    def test_off_aliases(self, monkeypatch):
        for raw in ("off", "row", "0", "false"):
            monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", raw)
            assert columnar_backend() == "off"

    def test_python_aliases(self, monkeypatch):
        for raw in ("python", "list", "baseline"):
            monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", raw)
            assert columnar_backend() == "python"

    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR_BACKEND", raising=False)
        expected = "numpy" if numpy_available() else "python"
        assert columnar_backend() == expected

    def test_store_never_freezes_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "off")
        assert ColumnStore(SCHEMA).backend in ("python", "numpy")


#: Run in a fresh interpreter: prints whether numpy is loaded after
#: ``import repro``, after a small shared-SteM fleet whose probes all stay
#: under ``KERNEL_MIN_CANDIDATES``, and after a fan-out join whose probes do not.
_IMPORT_PROBE = """
import sys
import repro
from repro.engine.multi import MultiQueryEngine
from repro.engine.stems_engine import run_stems
from repro.storage import Catalog, Schema, Table
from repro.storage.datagen import make_source_r, make_source_t

loaded = ["numpy" in sys.modules]
catalog = Catalog()
catalog.add_table(make_source_r(40, 10, seed=11))
catalog.add_table(make_source_t(40, seed=12))
catalog.add_scan("R", rate=100.0)
catalog.add_scan("T", rate=80.0)
sql = "SELECT * FROM R, T WHERE R.key = T.key"
fleet = MultiQueryEngine([sql, sql + " AND R.a < 5"], catalog, shared_stems=True)
rows = sum(result.row_count for _, result in fleet.run().items())
mirrors = sum(stem.stats["mirror_builds"] for stem in fleet.registry.stems.values())
loaded.append("numpy" in sys.modules)

catalog = Catalog()
for name in ("A", "B"):
    table = catalog.add_table(Table(name, Schema.of("id:int", "value:int")))
    table.insert_many((i, i % 2) for i in range(150))
    catalog.add_scan(name, rate=100.0)
fanout = run_stems("SELECT * FROM A, B WHERE A.value = B.value AND A.id < B.id", catalog)
loaded.append("numpy" in sys.modules)
print(loaded, rows > 0, mirrors, fanout.row_count)
"""


class TestNumpyOnDemand:
    @pytest.mark.skipif(not numpy_available(), reason="numpy backend absent")
    def test_imported_at_the_first_kernel_probe_and_not_before(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {k: v for k, v in os.environ.items() if k != "REPRO_COLUMNAR_BACKEND"}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == "[False, False, True] True 0 5550".split()

    def test_a_failed_deferred_import_falls_back_to_python(self, monkeypatch):
        from repro.storage import columns

        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "numpy")
        monkeypatch.setattr(columns, "numpy_available", lambda: True)
        monkeypatch.setattr(columns, "_np", False)  # not asked for yet
        monkeypatch.setitem(__import__("sys").modules, "numpy", None)  # import raises
        assert columnar_backend() == "numpy"  # installed, as far as anyone has looked
        store = ColumnStore(SCHEMA, indexed_columns=["x"])
        assert store.backend == "python" and columns.numpy_module() is None
        store.append(srow(0, 1), 1.0)
        assert store.np_index_for(store.posting_slots("x", 0), "x", 0) is None
        assert store.np_column(0) is None and store.np_ts() is None


class TestColumnarTable:
    def test_insert_maintains_columns_and_stats(self):
        table = ColumnarTable("S", SCHEMA)
        for i in range(5):
            table.insert((i, i * 10))
        assert list(table.column_values("y")) == [0, 10, 20, 30, 40]
        assert table.column_stats("y").max_value == 40
        with pytest.raises(SchemaError):
            table.column_stats("missing")

    def test_behaves_like_a_table(self):
        plain = Table("S", SCHEMA, [(i, i % 2) for i in range(6)])
        columnar = ColumnarTable("S", SCHEMA, [(i, i % 2) for i in range(6)])
        assert [r.values for r in plain] == [r.values for r in columnar]
        assert plain.distinct_values("y") == columnar.distinct_values("y")
        assert [r.values for r in plain.lookup(["y"], [1])] == [
            r.values for r in columnar.lookup(["y"], [1])
        ]

    def test_lookup_prunes_out_of_range_keys(self):
        table = ColumnarTable("S", SCHEMA, [(i, i) for i in range(10)])
        assert table.lookup(["y"], [99]) == []
        assert len(table.lookup(["y"], [5])) == 1

    def test_batches_and_insert_batch(self):
        table = ColumnarTable("S", SCHEMA, [(i, i) for i in range(7)])
        batches = list(table.batches(3))
        assert [len(b) for b in batches] == [3, 3, 1]
        sink = ColumnarTable("S2", SCHEMA)
        for batch in batches:
            sink.insert_batch(batch)
        assert [r.values for r in sink] == [r.values for r in table]
        with pytest.raises(SchemaError):
            list(table.batches(0))

    def test_analyze_column_uses_incremental_stats(self):
        columnar = ColumnarTable("S", SCHEMA, [(i, i % 3) for i in range(9)])
        plain = Table("S", SCHEMA, [(i, i % 3) for i in range(9)])
        fast = analyze_column(columnar, "y")
        slow = analyze_column(plain, "y")
        assert fast == slow

    def test_as_columnar_copies_and_is_idempotent(self):
        plain = make_uniform_table("U", 20, seed=3)
        columnar = as_columnar(plain)
        assert [r.values for r in columnar] == [r.values for r in plain]
        assert as_columnar(columnar) is columnar

    def test_datagen_columnar_kwarg(self):
        plain = make_source_r(50, 10, seed=4)
        columnar = make_source_r(50, 10, seed=4, columnar=True)
        assert isinstance(columnar, ColumnarTable)
        assert [r.values for r in columnar] == [r.values for r in plain]
        assert analyze_column(columnar, "a") == analyze_column(plain, "a")


# -- incremental statistics vs full recompute ------------------------------------

#: Comparable values only: after discards, mixed-type min/max depend on
#: which value happens to be seen first, so the recompute differential
#: restricts itself to the total-order case (mixed types are pinned by the
#: deterministic tests above and never prune — see ``_mixed``).
stat_values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


class TestIncrementalColumnStats:
    def test_empty(self):
        stats = IncrementalColumnStats("c")
        assert stats.count == 0 and stats.distinct == 0
        assert stats.min_value is None and stats.max_value is None
        assert stats.excludes(1) and stats.excludes(None)  # nothing stored

    def test_excludes_bounds(self):
        stats = IncrementalColumnStats("c")
        for value in (3, 5, 9):
            stats.add(value)
        assert stats.excludes(2) and stats.excludes(10)
        assert not stats.excludes(4)  # inside the range: unknowable cheaply
        assert not stats.excludes("a")  # incomparable: conservative
        assert stats.excludes(None)
        stats.add(None)
        assert not stats.excludes(None)

    def test_mixed_type_columns_never_exclude(self):
        stats = IncrementalColumnStats("c")
        stats.add(0.0)
        stats.add("a")  # mixed: bounds cover only the comparable subset
        assert not stats.excludes(1)
        assert not stats.excludes("zzz")

    def test_discard_of_extreme_recomputes(self):
        stats = IncrementalColumnStats("c")
        for value in (1, 7, 4):
            stats.add(value)
        stats.discard(7)
        assert stats.max_value == 4
        stats.discard(1)
        assert (stats.min_value, stats.max_value) == (4, 4)

    def test_discard_unknown_value_is_a_noop(self):
        stats = IncrementalColumnStats("c")
        stats.add(1)
        stats.discard(99)
        assert stats.count == 1

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_add_discard_matches_recompute(self, data):
        added = data.draw(
            st.lists(stat_values, min_size=0, max_size=20), label="added"
        )
        stats = IncrementalColumnStats("c")
        for value in added:
            stats.add(value)
        removals = data.draw(
            st.lists(st.sampled_from(range(len(added))), unique=True,
                     max_size=len(added))
            if added else st.just([]),
            label="removed positions",
        )
        survivors = list(added)
        for position in sorted(removals, reverse=True):
            stats.discard(added[position])
            survivors.pop(position)

        # Oracle: recompute from the surviving multiset.
        non_null = [value for value in survivors if value is not None]
        counter = Counter(non_null)
        snapshot = stats.snapshot(top_k=len(survivors) + 1)
        assert snapshot.count == len(survivors)
        assert snapshot.distinct == len(counter)
        assert snapshot.null_count == len(survivors) - len(non_null)
        assert snapshot.min_value == (min(non_null) if non_null else None)
        assert snapshot.max_value == (max(non_null) if non_null else None)
        assert dict(snapshot.most_common) == dict(counter)
        for probe in (-10, 10, 0, None):
            if stats.excludes(probe):
                assert probe not in survivors
