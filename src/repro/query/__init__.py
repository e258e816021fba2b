"""Query substrate: expressions, predicates, queries, parsing, plan layouts."""

from repro.query.binding import BindingPlan, validate_bindings
from repro.query.expressions import ColumnRef, Expression, Literal, as_expression
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.predicates import (
    Comparison,
    InList,
    Predicate,
    TruePredicate,
    selection,
)
from repro.query.query import Query, TableRef

__all__ = [
    "BindingPlan",
    "ColumnRef",
    "Comparison",
    "Expression",
    "InList",
    "Literal",
    "PlanLayout",
    "Predicate",
    "Query",
    "TableRef",
    "TruePredicate",
    "as_expression",
    "parse_query",
    "selection",
    "validate_bindings",
]
