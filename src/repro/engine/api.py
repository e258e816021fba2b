"""The public one-call API: :func:`execute` runs one query on any engine.

Multi-query runs go through :func:`~repro.engine.multi.run_multi`; a durable
run is recovered with :func:`~repro.recovery.recover_state` and
:func:`~repro.recovery.restore_engine` (the CLI's ``recover --run``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.errors import ExecutionError
from repro.core.costs import CostModel
from repro.core.policies import RoutingPolicy
from repro.engine.joins_engine import EddyJoinsEngine, JoinSpec, choose_join_order
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.engine.config import EngineConfig
from repro.engine.results import ExecutionResult
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog

#: The engines selectable through :func:`execute`.
ENGINES = ("stems", "eddy-joins", "static")


def execute(
    query: Query | str,
    catalog: Catalog,
    engine: str = "stems",
    policy: RoutingPolicy | str = "benefit",
    plan: Sequence[JoinSpec] | None = None,
    until: float | None = None,
    trace: TraceLog | None = None,
    **options,
) -> ExecutionResult:
    """Execute a select-project-join query and return its results and metrics.

    Args:
        query: a :class:`~repro.query.query.Query` or SQL text
            (``SELECT ... FROM ... WHERE ...``).
        catalog: the catalog holding the base tables and their access methods.
        engine: ``"stems"`` (the paper's architecture, default: a
            one-admission :class:`~repro.engine.multi.MultiQueryEngine` run,
            whose result is query ``"q0"``),
            ``"eddy-joins"`` (the pre-SteM eddy baseline) or ``"static"``
            (a traditional optimize-then-execute plan: the eddy-joins engine
            over the fixed plan of
            :func:`~repro.engine.joins_engine.choose_join_order`, routed by
            the naive policy whatever ``policy`` says).
        policy: routing policy name or instance (``stems`` and
            ``eddy-joins``; ``static`` refuses anything but the default).
        plan: explicit join-module plan (``eddy-joins`` engine only;
            ``static`` refuses one).
        until: stop the simulation at this virtual time.
        trace: optional :class:`~repro.sim.tracing.TraceLog` recording the
            engine's route/output/retire events.  Identical calls produce
            identical traces, tuple ids included.
        options: the engine keywords of
            :class:`~repro.engine.config.EngineConfig`.  The strict
            constraints and the SteM bound configure the ``stems`` engine
            only; the other two read the cost model and batch size.

    Returns:
        An :class:`~repro.engine.results.ExecutionResult`.

    Raises:
        QueryError: when :func:`~repro.query.binding.check_query` rejects
            the query, before virtual time 0.
        ExecutionError: on an unknown engine or option, when a
            ``stems``-only option is set to a non-default value on another
            engine, or when ``static`` is given a plan or a policy.
    """
    config = EngineConfig.from_options(
        "execute", options, ("engine", "policy", "plan", "until", "trace")
    )
    parsed = parse_query(query) if isinstance(query, str) else query
    if engine == "stems":
        return MultiQueryEngine(
            [QueryAdmission(parsed, policy=policy, trace=trace)],
            catalog,
            config=config,
        ).run(until=until)["q0"]
    stems_only = replace(config, cost_model=CostModel(), batch_size=1)
    if stems_only != EngineConfig():
        named = ", ".join(sorted(set(options) - {"cost_model", "batch_size"}))
        raise ExecutionError(
            f"engine {engine!r} does not take {named}; "
            "these options configure the 'stems' engine only"
        )
    # Each engine checks the query as it is built, before what it supports.
    if engine == "eddy-joins":
        baseline = EddyJoinsEngine(
            parsed, catalog, plan=plan, policy=None if policy == "benefit" else policy,
            config=config, trace=trace,
        )
    elif engine == "static":
        if plan is not None or policy != "benefit":
            raise ExecutionError(
                "engine 'static' chooses its own plan and routes it with the naive "
                f"policy; it does not take {'plan' if plan is not None else 'policy'}="
            )
        baseline = EddyJoinsEngine(
            parsed, catalog, plan=choose_join_order(parsed, catalog),
            config=config, trace=trace,
        )
    else:
        raise ExecutionError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if parsed.is_aggregate:
        # Incremental GROUP BY maintenance reads a SteM's pending delta;
        # the baseline engines have no SteMs to read.
        raise ExecutionError(
            f"engine {engine!r} does not support GROUP BY aggregate queries; "
            "use the 'stems' engine"
        )
    return replace(baseline.run(until=until), engine=engine)
