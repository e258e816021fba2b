"""Tests for tables, catalogs, and access-method declarations."""

import pytest

from repro.errors import CatalogError, DuplicateTableError, SchemaError, UnknownTableError
from repro.storage.catalog import Catalog, IndexSpec, ScanSpec
from repro.storage.schema import Schema
from repro.storage.table import Table


def make_table(rows=()) -> Table:
    return Table("R", Schema.of("key:int", "a:int", key=["key"]), rows)


class TestTable:
    def test_insert_sequences_mappings_rows(self):
        table = make_table()
        table.insert((1, 10))
        table.insert({"key": 2, "a": 20})
        table.insert(table.rows[0].replace(a=99).replace(key=3))
        assert len(table) == 3
        assert table.rows[1]["a"] == 20

    def test_primary_key_uniqueness(self):
        table = make_table()
        table.insert((1, 10))
        with pytest.raises(SchemaError):
            table.insert((1, 11))

    def test_rids_are_sequential(self):
        table = make_table()
        for i in range(5):
            table.insert((i, i))
        assert [row.rid for row in table] == list(range(5))

    def test_constructor_rows_and_scan_without_predicate(self):
        table = make_table([(1, 10), {"key": 2, "a": 20}])
        assert [row.values for row in table.scan()] == [(1, 10), (2, 20)]
        assert repr(table).startswith("Table('R', rows=2")

    def test_scan_with_predicate(self):
        table = make_table([(i, i % 3) for i in range(9)])
        filtered = list(table.scan(lambda row: row["a"] == 0))
        assert len(filtered) == 3

    def test_lookup_via_primary_key_index(self):
        table = make_table([(i, i * 2) for i in range(10)])
        assert [r["a"] for r in table.lookup(("key",), (4,))] == [8]

    def test_lookup_via_secondary_index_and_fallback(self):
        table = make_table([(i, i % 4) for i in range(12)])
        without_index = table.lookup(("a",), (1,))
        table.create_index(("a",))
        with_index = table.lookup(("a",), (1,))
        assert sorted(r["key"] for r in without_index) == sorted(r["key"] for r in with_index)

    def test_create_index_unknown_column(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.create_index(("nope",))

    def test_secondary_index_sees_later_inserts(self):
        table = make_table()
        index = table.create_index(("a",))
        table.insert((1, 42))
        assert len(index.lookup((42,))) == 1

    def test_create_index_returns_the_existing_index(self):
        table = make_table([(i, i % 3) for i in range(6)])
        first = table.create_index(["a"])
        assert table.create_index(("a",)) is first
        assert len(first) == 6  # existing rows were indexed once, not twice

    def test_create_index_has_no_kind_option(self):
        table = make_table()
        with pytest.raises(TypeError):
            table.create_index(("a",), kind="sorted")
        assert table.indexes == {}

    def test_indexes(self):
        table = make_table()
        assert table.indexes == {}
        index = table.create_index(["a"])
        listed = table.indexes
        assert listed == {("a",): index}
        listed.clear()
        assert table.indexes == {("a",): index}  # the property hands out a copy

    @pytest.mark.parametrize("columns", [("a",), ("key", "a"), ("a", "key")])
    def test_index_lookup_agrees_with_a_scan(self, columns):
        table = make_table([(i, i % 4) for i in range(16)])
        keys = {row.key_values(columns) for row in table}
        scanned = {key: sorted(r.rid for r in table.lookup(columns, key)) for key in keys}
        table.create_index(columns)
        for key in keys:
            assert sorted(r.rid for r in table.lookup(columns, key)) == scanned[key]
        assert table.lookup(columns, (99,) * len(columns)) == []


class TestCatalog:
    def test_add_and_lookup_tables(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int"), [(1,), (2,)]))
        assert "R" in catalog.tables
        assert len(catalog.table("R")) == 2
        with pytest.raises(UnknownTableError):
            catalog.table("missing")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int")))
        with pytest.raises(DuplicateTableError):
            catalog.add_table(Table("R", Schema.of("key:int")))

    def test_add_scan_and_index(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int", "a:int"), [(1, 2)]))
        scan = catalog.add_scan("R", rate=42.0)
        index = catalog.add_index("R", ["a"], latency=0.5)
        assert isinstance(scan, ScanSpec) and scan.bind_columns == ()
        assert isinstance(index, IndexSpec) and index.bind_columns == ("a",)
        assert catalog.has_scan("R")
        assert [s.name for s in catalog.scans("R")] == [scan.name]
        assert [s.name for s in catalog.indexes("R")] == [index.name]

    def test_index_on_unknown_column_rejected(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int")))
        with pytest.raises(CatalogError):
            catalog.add_index("R", ["nope"])

    def test_index_requires_bind_columns(self):
        with pytest.raises(CatalogError):
            IndexSpec(name="bad", table="R", columns=())

    @pytest.mark.parametrize(
        "option",
        [
            {"concurrency": 0},
            {"latency_model": "uniform"},
            {"failure_rate": 1.5},
            {"failure_rate": -0.1},
            {"max_retries": -1},
            {"retry_backoff": -0.5},
            {"lookup_timeout": 0.0},
            {"lookup_timeout": -1.0},
        ],
    )
    def test_index_spec_rejects_out_of_range_options(self, option):
        with pytest.raises(CatalogError, match=next(iter(option))):
            IndexSpec(name="idx", table="R", columns=("a",), **option)

    def test_index_spec_accepts_the_boundaries(self):
        spec = IndexSpec(
            name="idx", table="R", columns=("a",), latency_model="exponential",
            failure_rate=1.0, max_retries=0, retry_backoff=0.0, lookup_timeout=0.1,
        )
        assert spec.bind_columns == ("a",)

    def test_access_methods_of_an_unknown_table(self):
        catalog = Catalog()
        with pytest.raises(UnknownTableError):
            catalog.access_methods("R")
        with pytest.raises(UnknownTableError):
            catalog.add_scan("R")

    def test_duplicate_am_names_rejected(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int")))
        catalog.add_scan("R", name="the_scan")
        with pytest.raises(CatalogError):
            catalog.add_scan("R", name="the_scan")

    def test_default_am_names_are_unique(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int")))
        first = catalog.add_scan("R")
        second = catalog.add_scan("R")
        third = catalog.add_scan("R")
        assert [first.name, second.name, third.name] == ["R_scan", "R_scan2", "R_scan3"]

    def test_tables_property_is_a_copy_and_repr_counts(self):
        catalog = Catalog()
        catalog.add_table(Table("R", Schema.of("key:int"), [(1,)]))
        catalog.add_scan("R")
        catalog.tables.clear()
        assert list(catalog.tables) == ["R"]
        assert repr(catalog) == "Catalog(R(1 rows, 1 AMs))"

    def test_index_declaration_builds_backing_index(self):
        catalog = Catalog()
        table = catalog.add_table(Table("R", Schema.of("key:int", "a:int"), [(1, 5)]))
        catalog.add_index("R", ["a"])
        assert ("a",) in table.indexes
