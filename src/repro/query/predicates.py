"""Predicates: boolean conditions over composite tuples.

Predicates are the unit of work tracked by the eddy's done-bits: a result
tuple may be emitted only when every query predicate has been verified on it
(paper section 2.1.1).  Two families matter for routing decisions:

* *selection* predicates referencing a single alias — instantiated as
  selection modules (SMs);
* *join* predicates referencing two aliases — evaluated inside SteM probes
  and used to derive bind columns for index access methods.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Any, Callable, Mapping, Sequence

from repro.errors import QueryError
from repro.query.expressions import ColumnRef, Expression, Literal, as_expression
from repro.storage.row import Row

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_id_counter = itertools.count(1)


def _next_predicate_id() -> int:
    return next(_id_counter)


class Predicate:
    """Base class of all predicates."""

    def __init__(self, name: str | None = None, priority: float = 0.0):
        self.predicate_id = _next_predicate_id()
        self.name = name or f"p{self.predicate_id}"
        #: User-interest priority used by the online benefit metric (§4.1);
        #: 0 means "no special interest".
        self.priority = priority

    def aliases(self) -> frozenset[str]:
        """The table aliases this predicate refers to."""
        raise NotImplementedError

    def evaluate(self, components: Mapping[str, Row]) -> bool:
        """Evaluate against a mapping of alias -> Row; NULLs compare false."""
        raise NotImplementedError

    def can_evaluate(self, available: frozenset[str] | set[str]) -> bool:
        """True if all referenced aliases are available."""
        return self.aliases() <= frozenset(available)

    def renumber(self, new_id: int) -> None:
        """Reassign the predicate's id (and auto-generated name).

        The parser renumbers each parsed query's predicates 1..n so that
        parsing the same text twice yields identically named/identified
        predicates — module names and done-bits then stay deterministic
        across runs, which trace comparisons rely on.  Ids only need to be
        unique *within* one query: a tuple is ever evaluated against a
        single query's predicates.
        """
        auto_named = re.fullmatch(r"p\d+", self.name) is not None
        self.predicate_id = new_id
        if auto_named:
            self.name = f"p{new_id}"

    @property
    def is_selection(self) -> bool:
        """True if the predicate references exactly one alias."""
        return len(self.aliases()) == 1

    @property
    def is_equi_join(self) -> bool:
        """True for column = column predicates over two aliases."""
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Comparison(Predicate):
    """A binary comparison between two expressions.

    Args:
        left: left-hand expression.
        op: one of ``= != <> < <= > >=``.
        right: right-hand expression.
        name: optional human-readable name.
        priority: user-interest priority (see :class:`Predicate`).
    """

    def __init__(
        self,
        left: Expression | str | Any,
        op: str,
        right: Expression | str | Any,
        name: str | None = None,
        priority: float = 0.0,
    ):
        if op not in _OPERATORS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.left = as_expression(left)
        self.op = op
        self.right = as_expression(right)
        super().__init__(name=name, priority=priority)

    def aliases(self) -> frozenset[str]:
        return self.left.aliases() | self.right.aliases()

    def evaluate(self, components: Mapping[str, Row]) -> bool:
        left_value = self.left.evaluate(components)
        right_value = self.right.evaluate(components)
        if left_value is None or right_value is None:
            return False
        try:
            return _OPERATORS[self.op](left_value, right_value)
        except TypeError:
            return False

    @property
    def is_equi_join(self) -> bool:
        return (
            self.op in ("=", "==")
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.alias != self.right.alias
        )

    def column_for(self, alias: str) -> ColumnRef | None:
        """The column of this predicate that belongs to ``alias``, if any."""
        if isinstance(self.left, ColumnRef) and self.left.alias == alias:
            return self.left
        if isinstance(self.right, ColumnRef) and self.right.alias == alias:
            return self.right
        return None

    def other_side(self, alias: str) -> Expression:
        """The expression on the opposite side from ``alias``."""
        if isinstance(self.left, ColumnRef) and self.left.alias == alias:
            return self.right
        if isinstance(self.right, ColumnRef) and self.right.alias == alias:
            return self.left
        raise QueryError(f"predicate {self} does not reference alias {alias!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class InList(Predicate):
    """``column IN (v1, v2, ...)`` membership predicate."""

    def __init__(
        self,
        column: ColumnRef | str,
        values: Sequence[Any],
        name: str | None = None,
        priority: float = 0.0,
    ):
        self.column = (
            column if isinstance(column, ColumnRef) else ColumnRef.parse(column)
        )
        self.values = frozenset(values)
        super().__init__(name=name, priority=priority)

    def aliases(self) -> frozenset[str]:
        return self.column.aliases()

    def evaluate(self, components: Mapping[str, Row]) -> bool:
        value = self.column.evaluate(components)
        return value in self.values

    def __str__(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{self.column} IN ({rendered})"


class TruePredicate(Predicate):
    """The predicate that is always true (the EOT predicate of a scan)."""

    def aliases(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, components: Mapping[str, Row]) -> bool:
        return True

    def __str__(self) -> str:
        return "TRUE"


def selection(column: str, op: str, value: Any, priority: float = 0.0) -> Comparison:
    """Convenience constructor: ``selection("R.a", "<", 100)``."""
    return Comparison(ColumnRef.parse(column), op, Literal(value), priority=priority)
