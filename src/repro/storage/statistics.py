"""Table statistics for the static plan.

The adaptive engines need no statistics (that is the point of the paper);
only the static plan's ``choose_join_order`` does, like a traditional
optimizer: it reads each table's cardinality and each join column's number
of distinct values.

Every read is a full recompute over the table's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.table import Table


@dataclass(frozen=True)
class TableStatistics:
    """A table's cardinality and, per column, its distinct non-null values."""

    table: str
    cardinality: int
    distinct: dict[str, int]


def analyze_table(table: Table) -> TableStatistics:
    """Compute the statistics of a table."""
    distinct = {
        column.name: len({row[column.name] for row in table} - {None})
        for column in table.schema
    }
    return TableStatistics(table=table.name, cardinality=len(table), distinct=distinct)


def estimate_join_selectivity(
    left: TableStatistics, left_column: str, right: TableStatistics, right_column: str
) -> float:
    """Estimated selectivity of an equi-join predicate.

    The textbook estimate ``1 / max(NDV(left), NDV(right))``.
    """
    denominator = max(left.distinct[left_column], right.distinct[right_column])
    if denominator == 0:
        return 0.0
    return 1.0 / denominator


def estimate_join_cardinality(
    left: TableStatistics, left_column: str, right: TableStatistics, right_column: str
) -> float:
    """Estimated output cardinality of an equi-join between two tables."""
    selectivity = estimate_join_selectivity(left, left_column, right, right_column)
    return left.cardinality * right.cardinality * selectivity
