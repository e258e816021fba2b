"""Storage substrate: schemas, rows, tables, indexes, catalog, data generators."""

from repro.storage.catalog import AccessMethodSpec, Catalog, IndexSpec, ScanSpec
from repro.storage.indexes import (
    AdaptiveIndex,
    HashIndex,
    ListIndex,
    RowIndex,
    SortedIndex,
    build_index,
)
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.statistics import (
    ColumnStatistics,
    TableStatistics,
    analyze_column,
    analyze_table,
    estimate_join_cardinality,
    estimate_join_selectivity,
)
from repro.storage.table import Table, table_from_dicts
from repro.storage.types import DataType

__all__ = [
    "AccessMethodSpec",
    "AdaptiveIndex",
    "Catalog",
    "Column",
    "ColumnStatistics",
    "DataType",
    "HashIndex",
    "IndexSpec",
    "ListIndex",
    "Row",
    "RowIndex",
    "ScanSpec",
    "Schema",
    "SortedIndex",
    "Table",
    "TableStatistics",
    "analyze_column",
    "analyze_table",
    "build_index",
    "estimate_join_cardinality",
    "estimate_join_selectivity",
    "table_from_dicts",
]
