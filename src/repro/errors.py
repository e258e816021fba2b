"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema is malformed, or a row does not conform to its schema."""


class UnknownColumnError(SchemaError):
    """A column reference names a column that does not exist."""

    def __init__(self, column: str, available: tuple[str, ...] = ()):
        self.column = column
        self.available = tuple(available)
        detail = f"unknown column {column!r}"
        if available:
            detail += f" (available: {', '.join(available)})"
        super().__init__(detail)


class UnknownTableError(ReproError):
    """A table or alias is referenced that is not in the catalog / query."""

    def __init__(self, table: str, available: tuple[str, ...] = ()):
        self.table = table
        self.available = tuple(available)
        detail = f"unknown table {table!r}"
        if available:
            detail += f" (available: {', '.join(available)})"
        super().__init__(detail)


class DuplicateTableError(ReproError):
    """A table with this name already exists in the catalog."""


class CatalogError(ReproError):
    """Generic catalog misuse (missing access method, bad registration...)."""


class QueryError(ReproError):
    """A query is semantically invalid."""


class ParseError(QueryError):
    """The SQL-like query text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class BindingError(QueryError):
    """The query cannot be executed given bind-field constraints on sources.

    This is the failure mode of the Nail-style validation step of paper
    section 2.2: some table can only be accessed through index AMs whose
    bind columns can never be supplied by the rest of the query.
    """


class ExecutionError(ReproError):
    """An engine failed while executing a query."""


class RoutingViolationError(ExecutionError):
    """A routing policy violated one of the paper's routing constraints.

    Raised only when the eddy runs with ``strict_constraints=True``; in
    normal operation illegal destinations are simply filtered out before the
    policy sees them.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""

