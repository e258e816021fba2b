"""The public one-call API: :func:`execute` runs one query on any engine.

Multi-query runs go through :func:`~repro.engine.multi.run_multi`; a durable
run is recovered with :func:`~repro.recovery.recover_state` and
:func:`~repro.recovery.restore_engine` (the CLI's ``recover --run``).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExecutionError
from repro.core.costs import CostModel
from repro.core.policies import RoutingPolicy
from repro.engine.joins_engine import JoinSpec, run_eddy_joins
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.engine.options import SHARED_ENGINE_OPTIONS, reject_unknown_options
from repro.engine.results import ExecutionResult
from repro.engine.static_engine import run_static
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
    cost_model: CostModel | None = None,
    plan: Sequence[JoinSpec] | None = None,
    until: float | None = None,
    strict_constraints: bool = False,
    batch_size: int = 1,
    stem_max_size: int | None = None,
    stem_eviction: str | None = None,
    stem_window: float | None = None,
    trace: TraceLog | None = None,
    **options,
) -> ExecutionResult:
    """Execute a select-project-join query and return its results and metrics.

    Args:
        query: a :class:`~repro.query.query.Query` or SQL text
            (``SELECT ... FROM ... WHERE ...``).
        catalog: the catalog holding the base tables and their access methods.
        engine: ``"stems"`` (the paper's architecture, default: a
            one-admission :class:`~repro.engine.multi.MultiQueryEngine` run
            on private SteMs, whose result is query ``"q0"``),
            ``"eddy-joins"`` (the pre-SteM eddy baseline) or ``"static"``
            (a traditional optimize-then-execute plan).
        policy: routing policy name or instance (adaptive engines only).
        cost_model: virtual-time cost model (adaptive engines only).
        plan: explicit join-module plan (``eddy-joins`` engine only).
        until: stop the simulation at this virtual time (adaptive engines).
        strict_constraints: validate every routing decision against the
            paper's Table 2 constraints (``stems`` engine only).
        batch_size: ready tuples the eddy drains per routing event (adaptive
            engines; 1 = the paper's per-tuple routing, >1 enables
            signature-batched routing with the destination cache).
        stem_max_size: optional per-SteM row bound (``stems`` engine only).
        stem_eviction: named SteM eviction policy — ``"count"``,
            ``"time-window"`` or ``"reference-window"`` (``stems`` engine
            only).
        stem_window: build-timestamp window width for
            ``stem_eviction="time-window"`` (``stems`` engine only).
        trace: optional :class:`~repro.sim.tracing.TraceLog` recording the
            adaptive engines' route/output/retire events.  Identical calls
            produce identical traces, tuple ids included.  The ``static``
            engine routes nothing and therefore emits no trace records.

    Returns:
        An :class:`~repro.engine.results.ExecutionResult`.

    Raises:
        ExecutionError: on an unknown engine or option, or when a
            ``stems``-only option is set to a non-default value on another
            engine.
    """
    reject_unknown_options(
        "execute",
        options,
        ("engine", "policy", "plan", "until", "trace", *SHARED_ENGINE_OPTIONS),
    )
    parsed = parse_query(query) if isinstance(query, str) else query
    if parsed.is_aggregate and engine != "stems":
        # Incremental GROUP BY maintenance reads a SteM's pending delta;
        # the baseline engines have no SteMs to read.
        raise ExecutionError(
            f"engine {engine!r} does not support GROUP BY aggregate queries; "
            "use the 'stems' engine"
        )
    if engine == "stems":
        return MultiQueryEngine(
            [QueryAdmission(parsed, policy=policy, trace=trace)],
            catalog,
            shared_stems=False,
            cost_model=cost_model,
            strict_constraints=strict_constraints,
            batch_size=batch_size,
            stem_max_size=stem_max_size,
            stem_eviction=stem_eviction,
            stem_window=stem_window,
        ).run(until=until)["q0"]
    ignored = [
        name
        for name, value, default in (
            ("strict_constraints", strict_constraints, False),
            ("stem_max_size", stem_max_size, None),
            ("stem_eviction", stem_eviction, None),
            ("stem_window", stem_window, None),
        )
        if value != default
    ]
    if ignored:
        raise ExecutionError(
            f"engine {engine!r} does not take {', '.join(ignored)}; "
            "these options configure the 'stems' engine only"
        )
    if engine == "eddy-joins":
        return run_eddy_joins(
            parsed, catalog, plan=plan, policy=None if policy == "benefit" else policy,
            cost_model=cost_model, until=until, batch_size=batch_size, trace=trace,
        )
    if engine == "static":
        return run_static(parsed, catalog)
    raise ExecutionError(f"unknown engine {engine!r}; expected one of {ENGINES}")

