"""Storage substrate: schemas, rows, tables, indexes, catalog, data generators."""

from repro.storage.catalog import AccessMethodSpec, Catalog, IndexSpec, ScanSpec
from repro.storage.indexes import HashIndex
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.statistics import (
    TableStatistics,
    analyze_table,
    estimate_join_cardinality,
    estimate_join_selectivity,
)
from repro.storage.table import Table
from repro.storage.types import DataType

__all__ = [
    "AccessMethodSpec",
    "Catalog",
    "Column",
    "DataType",
    "HashIndex",
    "IndexSpec",
    "Row",
    "ScanSpec",
    "Schema",
    "Table",
    "TableStatistics",
    "analyze_table",
    "estimate_join_cardinality",
    "estimate_join_selectivity",
]
