"""Execution engines: SteMs (Figure 1(c)), eddy+joins (1(b)) and static (1(a)).

Every SteM query runs on :class:`MultiQueryEngine`: a single query is a
one-admission run, a fleet shares one SteM per base table (all of them owned
by the engine's :class:`~repro.core.stem_registry.SteMRegistry`).  A static
plan is an :class:`EddyJoinsEngine` over the fixed plan of
:func:`choose_join_order`.
"""

from repro.engine.api import ENGINES, execute
from repro.engine.joins_engine import (
    EddyJoinsEngine,
    JoinPlanResolver,
    JoinSpec,
    choose_join_order,
    default_join_plan,
    run_eddy_joins,
)
from repro.engine.multi import (
    MultiQueryEngine,
    QueryAdmission,
    run_multi,
)
from repro.engine.results import ExecutionResult, MultiQueryResult, Series

__all__ = [
    "ENGINES",
    "EddyJoinsEngine",
    "ExecutionResult",
    "JoinPlanResolver",
    "JoinSpec",
    "MultiQueryEngine",
    "MultiQueryResult",
    "QueryAdmission",
    "Series",
    "choose_join_order",
    "default_join_plan",
    "execute",
    "run_eddy_joins",
    "run_multi",
]
