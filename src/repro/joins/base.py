"""Common machinery for the static engine's binary joins.

The joins in ``repro.joins`` are classic, pull-based operators over
*composites*: dictionaries mapping alias -> :class:`Row`.  A base-table input
is a list of single-entry composites.  They are the building blocks of the
static-plan baseline (paper Figure 1(a)), which
:mod:`repro.engine.static_engine` runs through
:func:`repro.joins.pipeline.execute_left_deep`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.query.expressions import ColumnRef
from repro.query.predicates import Comparison, Predicate
from repro.storage.row import Row

#: A composite tuple: one row per alias.
Composite = dict[str, Row]


def singleton(alias: str, row: Row) -> Composite:
    """Wrap a base-table row as a composite under the given alias."""
    return {alias: row}


def merge(left: Composite, right: Composite) -> Composite:
    """Concatenate two composites; their alias sets must be disjoint."""
    overlap = left.keys() & right.keys()
    if overlap:
        raise QueryError(f"cannot merge composites sharing aliases {sorted(overlap)}")
    merged = dict(left)
    merged.update(right)
    return merged


def satisfies(composite: Composite, predicates: Iterable[Predicate]) -> bool:
    """True if the composite passes every predicate."""
    return all(predicate.evaluate(composite) for predicate in predicates)


@dataclass(frozen=True)
class EquiJoinSpec:
    """The equi-join columns extracted from predicates, per side.

    Attributes:
        left_columns: ``(alias, column)`` pairs on the left input.
        right_columns: ``(alias, column)`` pairs on the right input, aligned
            positionally with ``left_columns``.
        residual: predicates that are not simple equi-joins and must be
            applied after matching on the key columns.
    """

    left_columns: tuple[tuple[str, str], ...]
    right_columns: tuple[tuple[str, str], ...]
    residual: tuple[Predicate, ...]

    @property
    def has_keys(self) -> bool:
        """True if at least one equi-join column pair was found."""
        return bool(self.left_columns)

    def left_key(self, composite: Composite) -> tuple:
        """The join key of a left-side composite."""
        return tuple(composite[a][c] for a, c in self.left_columns)

    def right_key(self, composite: Composite) -> tuple:
        """The join key of a right-side composite."""
        return tuple(composite[a][c] for a, c in self.right_columns)


def extract_equi_join(
    predicates: Sequence[Predicate],
    left_aliases: frozenset[str] | set[str],
    right_aliases: frozenset[str] | set[str],
) -> EquiJoinSpec:
    """Split predicates into equi-join key pairs and residual predicates.

    Only predicates fully evaluable over ``left_aliases | right_aliases`` may
    be passed in.
    """
    left_aliases = frozenset(left_aliases)
    right_aliases = frozenset(right_aliases)
    left_cols: list[tuple[str, str]] = []
    right_cols: list[tuple[str, str]] = []
    residual: list[Predicate] = []
    for predicate in predicates:
        if (
            isinstance(predicate, Comparison)
            and predicate.op in ("=", "==")
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            first, second = predicate.left, predicate.right
            if first.alias in left_aliases and second.alias in right_aliases:
                left_cols.append((first.alias, first.column))
                right_cols.append((second.alias, second.column))
                continue
            if first.alias in right_aliases and second.alias in left_aliases:
                left_cols.append((second.alias, second.column))
                right_cols.append((first.alias, first.column))
                continue
        residual.append(predicate)
    return EquiJoinSpec(tuple(left_cols), tuple(right_cols), tuple(residual))


class BinaryJoin(ABC):
    """Base class of binary join operators over composite streams.

    Args:
        predicates: the predicates evaluable once both sides are joined
            (join predicates between the sides plus any residual selections).
        left_aliases: aliases present in left-side composites.
        right_aliases: aliases present in right-side composites.
    """

    def __init__(
        self,
        predicates: Sequence[Predicate],
        left_aliases: Iterable[str],
        right_aliases: Iterable[str],
    ):
        self.left_aliases = frozenset(left_aliases)
        self.right_aliases = frozenset(right_aliases)
        if self.left_aliases & self.right_aliases:
            raise QueryError("join inputs must not share aliases")
        self.predicates = tuple(predicates)
        self.spec = extract_equi_join(
            self.predicates, self.left_aliases, self.right_aliases
        )
        #: Operational statistics, populated during execution.
        self.stats: dict[str, int] = {"left_rows": 0, "right_rows": 0, "results": 0}

    @abstractmethod
    def join(
        self, left: Iterable[Composite], right: Iterable[Composite]
    ) -> Iterator[Composite]:
        """Join the two inputs and yield result composites."""

    def _emit(self, left: Composite, right: Composite) -> Composite | None:
        """Merge and filter a candidate pair; return the result or None."""
        candidate = merge(left, right)
        if satisfies(candidate, self.spec.residual):
            self.stats["results"] += 1
            return candidate
        return None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({sorted(self.left_aliases)} ⋈ "
            f"{sorted(self.right_aliases)})"
        )
