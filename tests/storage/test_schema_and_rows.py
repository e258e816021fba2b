"""Tests for schemas, columns, data types, and rows."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError, UnknownColumnError
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType


class TestDataType:
    def test_from_name_aliases(self):
        assert DataType.from_name("int") is DataType.INTEGER
        assert DataType.from_name("VARCHAR") is DataType.STRING
        assert DataType.from_name("double") is DataType.FLOAT
        with pytest.raises(SchemaError):
            DataType.from_name("blob")

    def test_validate_none_is_always_valid(self):
        for dtype in DataType:
            assert dtype.validate(None)

    def test_integer_accepts_floats_nowhere(self):
        assert not DataType.INTEGER.validate(2.5)
        assert DataType.FLOAT.validate(2)

    def test_boolean_is_not_integer(self):
        assert not DataType.INTEGER.validate(True)


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_non_nullable_column_rejects_none(self):
        Column("a").validate(None)
        with pytest.raises(SchemaError, match="not nullable"):
            Column("a", nullable=False).validate(None)
        schema = Schema([Column("a", nullable=False)])
        with pytest.raises(SchemaError):
            Row("R", schema, (None,), validate=True)


class TestSchema:
    def test_of_parses_specs(self):
        schema = Schema.of("key:int", "name:text", "score:float", key=["key"])
        assert schema.names == ("key", "name", "score")
        assert schema["score"].dtype is DataType.FLOAT
        assert schema.key == ("key",)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a"), Column("a")])

    def test_unknown_key_column_rejected(self):
        with pytest.raises(UnknownColumnError):
            Schema([Column("a")], key=["b"])

    def test_unknown_column_lookup_raises(self):
        schema = Schema.of("a", "b")
        with pytest.raises(UnknownColumnError):
            schema["z"]

    def test_columns_repr_and_foreign_equality(self):
        schema = Schema.of("a:int", "b:text")
        assert [column.name for column in schema.columns] == ["a", "b"]
        assert repr(schema) == "Schema(a:integer, b:string)"
        assert schema != ("a", "b")

    def test_position_and_contains(self):
        schema = Schema.of("a", "b", "c")
        assert schema.position("b") == 1
        assert "c" in schema
        assert "z" not in schema
        with pytest.raises(UnknownColumnError):
            schema.position("z")

    def test_equality_and_hash(self):
        first = Schema.of("a:int", "b:int", key=["a"])
        second = Schema.of("a:int", "b:int", key=["a"])
        assert first == second
        assert hash(first) == hash(second)
        assert first != Schema.of("a:int", "b:int")

    def test_validate_values_length(self):
        schema = Schema.of("a", "b")
        with pytest.raises(SchemaError):
            schema.validate_values((1,))

    def test_from_mapping(self):
        schema = Schema.from_mapping({"a": "int", "b": DataType.STRING})
        assert schema["b"].dtype is DataType.STRING


class TestRow:
    def setup_method(self):
        self.schema = Schema.of("key:int", "a:int", key=["key"])

    def test_getitem_and_get(self):
        row = Row("R", self.schema, (1, 10))
        assert row["a"] == 10
        assert row.get("missing", -1) == -1

    def test_getitem_raises_get_defaults(self):
        # The contract: __getitem__ raises UnknownColumnError for *any* bad
        # name; get never raises, it returns the default.
        row = Row("R", self.schema, (1, 10))
        with pytest.raises(UnknownColumnError):
            row["missing"]
        with pytest.raises(UnknownColumnError):
            row[["a"]]  # unhashable name maps to the same error, not TypeError
        assert row.get("missing") is None
        assert row.get(["a"], "fallback") == "fallback"
        assert row.get(("key", "a"), 0) == 0
        assert row.get("key") == 1  # present columns still resolve

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            Row("R", self.schema, (1, 2, 3))

    def test_validation_catches_type_errors(self):
        with pytest.raises(SchemaError):
            Row("R", self.schema, (1, "oops"), validate=True)

    def test_rows_are_immutable(self):
        row = Row("R", self.schema, (1, 10))
        with pytest.raises(AttributeError):
            row.values = (2, 20)

    def test_equality_ignores_rid(self):
        first = Row("R", self.schema, (1, 10), rid=0)
        second = Row("R", self.schema, (1, 10), rid=5)
        assert first == second
        assert hash(first) == hash(second)

    def test_equality_respects_table(self):
        other_schema = Schema.of("key:int", "a:int")
        assert Row("R", self.schema, (1, 10)) != Row("R2", other_schema, (1, 10))

    def test_as_dict_and_key_values(self):
        row = Row("R", self.schema, (3, 7))
        assert row.as_dict() == {"key": 3, "a": 7}
        assert row.key_values(("a", "key")) == (7, 3)

    def test_replace(self):
        row = Row("R", self.schema, (3, 7))
        updated = row.replace(a=8)
        assert updated["a"] == 8 and updated["key"] == 3
        with pytest.raises(UnknownColumnError):
            row.replace(zzz=1)

    def test_iteration_length_and_repr(self):
        row = Row("R", self.schema, (3, 7))
        assert list(row) == [3, 7] and len(row) == 2
        assert repr(row) == "Row(R: key=3, a=7)"
        assert row != (3, 7)

    def test_from_mapping_fills_missing_with_none(self):
        row = Row.from_mapping("R", self.schema, {"key": 1})
        assert row["a"] is None


@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=3, max_size=3)
)
def test_row_roundtrip_property(values):
    """as_dict/from_mapping round-trips arbitrary integer rows."""
    schema = Schema.of("a:int", "b:int", "c:int")
    row = Row("T", schema, values)
    rebuilt = Row.from_mapping("T", schema, row.as_dict())
    assert rebuilt == row
