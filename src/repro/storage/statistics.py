"""Simple table and column statistics.

Statistics are *not* needed by the adaptive engines (that is the point of
the paper), but they are used by:

* the static plan's ``choose_join_order``, which — like a traditional
  optimizer — needs cardinality and selectivity estimates, and
* the benchmark harness, to report properties of generated workloads.

Every read is a full recompute over the table's rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.storage.table import Table


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics for a single column of a table."""

    column: str
    count: int
    distinct: int
    null_count: int
    min_value: Any
    max_value: Any
    most_common: tuple[tuple[Any, int], ...]


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for a whole table."""

    table: str
    cardinality: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        """Statistics for the named column."""
        return self.columns[name]


def analyze_column(table: Table, column: str, top_k: int = 5) -> ColumnStatistics:
    """Compute statistics for one column of a table."""
    values = [row[column] for row in table]
    non_null = [value for value in values if value is not None]
    counter = Counter(non_null)
    comparable = _comparable(non_null)
    return ColumnStatistics(
        column=column,
        count=len(values),
        distinct=len(counter),
        null_count=len(values) - len(non_null),
        min_value=min(comparable) if comparable else None,
        max_value=max(comparable) if comparable else None,
        most_common=tuple(counter.most_common(top_k)),
    )


def analyze_table(table: Table, top_k: int = 5) -> TableStatistics:
    """Compute statistics for every column of a table."""
    columns = {
        column.name: analyze_column(table, column.name, top_k=top_k)
        for column in table.schema
    }
    return TableStatistics(table=table.name, cardinality=len(table), columns=columns)


def estimate_join_selectivity(
    left: TableStatistics, left_column: str, right: TableStatistics, right_column: str
) -> float:
    """Estimated selectivity of an equi-join predicate.

    The textbook estimate ``1 / max(NDV(left), NDV(right))``.
    """
    left_ndv = left.column(left_column).distinct
    right_ndv = right.column(right_column).distinct
    denominator = max(left_ndv, right_ndv)
    if denominator == 0:
        return 0.0
    return 1.0 / denominator


def estimate_join_cardinality(
    left: TableStatistics, left_column: str, right: TableStatistics, right_column: str
) -> float:
    """Estimated output cardinality of an equi-join between two tables."""
    selectivity = estimate_join_selectivity(left, left_column, right, right_column)
    return left.cardinality * right.cardinality * selectivity


def _comparable(values: list[Any]) -> list[Any]:
    """Drop values that cannot be compared against the rest (mixed types)."""
    if not values:
        return []
    first_type = type(values[0])
    if all(isinstance(value, (int, float)) for value in values):
        return values
    return [value for value in values if isinstance(value, first_type)]
