"""Tests for bind-field (Nail-style) validation of queries against a catalog."""

import pytest

from repro.errors import BindingError
from repro.query.binding import (
    constant_bound_columns,
    joinable_columns,
    validate_bindings,
)
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t


def rs_catalog(with_r_scan=True, with_s_index=True) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(50, 10))
    catalog.add_table(make_source_s(20))
    if with_r_scan:
        catalog.add_scan("R")
    if with_s_index:
        catalog.add_index("S", ["x"])
    return catalog


class TestValidateBindings:
    def test_q1_is_executable(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        plan = validate_bindings(query, rs_catalog())
        assert plan.access_order == ("R", "S")
        assert plan.driver_aliases == {"R"}
        assert len(plan.methods_for("S")) == 1

    def test_unreachable_index_only_table(self):
        """S's index needs R.a, but R itself has no access method."""
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        catalog = rs_catalog(with_r_scan=False)
        with pytest.raises(BindingError):
            validate_bindings(query, catalog)

    def test_index_bound_by_constant(self):
        """An index-only table is reachable when a constant binds its key."""
        query = parse_query("SELECT * FROM S WHERE S.x = 5")
        catalog = Catalog()
        catalog.add_table(make_source_s(20))
        catalog.add_index("S", ["x"])
        plan = validate_bindings(query, catalog)
        assert plan.driver_aliases == {"S"}

    def test_index_only_table_without_bindings_is_rejected(self):
        query = parse_query("SELECT * FROM S")
        catalog = Catalog()
        catalog.add_table(make_source_s(20))
        catalog.add_index("S", ["x"])
        with pytest.raises(BindingError):
            validate_bindings(query, catalog)

    def test_table_without_access_methods_rejected(self):
        query = parse_query("SELECT * FROM R")
        catalog = Catalog()
        catalog.add_table(make_source_r(10, 5))
        with pytest.raises(BindingError):
            validate_bindings(query, catalog)

    def test_chain_of_index_only_tables(self):
        """R (scan) binds S, and S binds T: the fixpoint must chain."""
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.key")
        catalog = Catalog()
        catalog.add_table(make_source_r(50, 10))
        catalog.add_table(make_source_s(20))
        catalog.add_table(make_source_t(50))
        catalog.add_scan("R")
        catalog.add_index("S", ["x"])
        catalog.add_index("T", ["key"])
        plan = validate_bindings(query, catalog)
        assert plan.access_order == ("R", "S", "T")
        assert plan.driver_aliases == {"R"}

    def test_competitive_access_methods_all_usable(self):
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        catalog = Catalog()
        catalog.add_table(make_source_r(50, 10))
        catalog.add_table(make_source_t(50))
        catalog.add_scan("R")
        catalog.add_scan("T")
        catalog.add_index("T", ["key"])
        plan = validate_bindings(query, catalog)
        assert len(plan.methods_for("T")) == 2

    def test_multi_column_index_requires_all_columns_bound(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        catalog = Catalog()
        catalog.add_table(make_source_r(50, 10))
        catalog.add_table(make_source_s(20))
        catalog.add_scan("R")
        catalog.add_index("S", ["x", "y"])  # y can never be bound
        with pytest.raises(BindingError):
            validate_bindings(query, catalog)


class TestHelpers:
    def test_constant_bound_columns(self):
        query = parse_query("SELECT * FROM S WHERE S.x = 5 AND S.y > 3")
        assert constant_bound_columns(query, "S").keys() == {"x"}

    def test_constant_binding_reversed_operands(self):
        query = parse_query("SELECT * FROM S WHERE 5 = S.x")
        assert constant_bound_columns(query, "S").keys() == {"x"}

    def test_joinable_columns(self):
        query = parse_query("SELECT * FROM R, S WHERE R.a = S.x")
        assert joinable_columns(query, "S", frozenset({"R"})) == {"x"}
        assert joinable_columns(query, "S", frozenset()) == set()
