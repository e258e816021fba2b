"""Multi-query execution with shared SteMs (paper §2.1.4).

The paper's pitch for SteMs is that decoupled join state is the natural unit
of *sharing*: the continuous-query systems it cites (CACQ, PSoUP) run many
concurrent queries over one set of SteMs.  This engine realises that inside
the reproduction — as a **continuous-query service**: queries are admitted
onto **one** discrete-event simulator, each with its own eddy,
:class:`ConstraintChecker` and routing policy, all queries that touch a base
table probe (and build) the **same** SteM drawn from a
:class:`~repro.core.stem_registry.SteMRegistry` — and the fleet *churns*:
:meth:`MultiQueryEngine.admit` admits a query onto the live simulator
mid-run, and :meth:`MultiQueryEngine.retire` tears one down again,
reclaiming every piece of state only that query needed.

What is shared, and what stays per query:

* **Shared** — the SteM per base table (rows, build timestamps, secondary
  indexes, EOT/seal state), the build-timestamp counter (the TimeStamp
  constraint needs one total order over builds no matter which query did
  them), and the simulator clock.
* **Per query** — the eddy and its ready queue, the routing policy, the
  constraint checker and its destination-signature cache, the compiled
  :class:`~repro.query.layout.PlanLayout` (alias/predicate bit positions are
  per query: ``eddy_of(query_id).layout``), selection and
  access modules, statistics, outputs, and traces.  Every dataflow tuple is
  stamped with its query's id on entry.

Differential admission semantics (what a late admission observes):

* A query admitted at virtual time T starts its own scans at T — it sees
  exactly the source rows its access methods deliver *after* its admission
  (scan offsets are relative to module start), never a replay of rows it
  "missed".
* It immediately probes whatever the shared SteMs already hold: state built
  by earlier queries answers its probes (§3.3's covering-probe semantics),
  which is the sharing win — and the only way its results can differ from a
  fresh run over its own post-T deliveries.
* On a catalog slice no other query touches, an admission at T is therefore
  *equivalent* to a fresh single-query run started at T: same routings,
  same outputs, same trace shape (``tests/engine/test_churn.py`` pins this
  differentially).

Retirement semantics (:meth:`MultiQueryEngine.retire`):

* the query's result set (everything emitted up to the retirement instant)
  is snapshotted and reported in the final :class:`MultiQueryResult` with
  ``retired_at`` set;
* its eddy shuts down — scans cancel undelivered rows, queued tuples are
  dropped, in-flight events become no-ops — so a retired query stops
  consuming simulated resources *and* stops mutating shared state;
* its modules detach from the shared SteMs (evict listeners and aggregate
  readers removed, per-layout probe-plan memos cleared), and the registry's per-table
  refcounts are decremented: a SteM nobody references any more is reclaimed
  wholesale, and secondary indexes only the retiring query's bindings
  needed are dropped (``index_epoch`` moves so surviving compiled plans
  re-resolve).

Correctness notes (why per-query results equal each query run alone):

* A build whose row is already present (inserted first by another query) is
  *not* dropped: it bounces back into its own query's dataflow carrying the
  shared build timestamp, so the query still probes with it.  Only a row
  the same query has already carried — a competing-AM duplicate — ends at
  the SteM, exactly the paper's SteM BounceBack rule.
* Probe coverage ("all matches known") is only claimed per-query-safely:
  timestamp-suppressed matches inserted by *another* query's dataflow reach
  this query only via its own scan, so without one the AM-probe path stays
  open (see :class:`~repro.core.modules.stem_module.SharedSteMModule`).
* Self-joins keep private per-alias SteMs: the TimeStamp discipline needs
  timestamp-distinct copies of a row under each alias to emit diagonal
  matches exactly once, so only single-reference tables are shared.
* With bounded SteMs the sliding window itself becomes shared state:
  evictions follow the *interleaved* cross-query insert order, so with
  several concurrent queries the per-query result sets reflect the shared
  window (the CACQ/PSoUP semantics) rather than what each query would see
  over a private window.  Run-alone equivalence is exact for unbounded
  SteMs, and for a bounded SteM only while one query is admitted.

The sharing win is measured, not assumed: the shared configuration performs
one table's worth of SteM *insertions* regardless of how many queries read
the table, which `benchmarks/test_ablation_shared_stems.py` asserts against
the private configuration along with byte-identical per-query results; the
churn machinery is measured by `benchmarks/test_ablation_churn.py` (bounded
state and throughput under sustained admission/retirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ExecutionError
from repro.core.aggregates import AggregateModule, AggregateRegistry
from repro.core.eddy import Eddy
from repro.core.modules.stem_module import SharedSteMModule, SteMModule
from repro.core.policies import RoutingPolicy, make_policy
from repro.core.stem import SteM
from repro.core.stem_registry import (
    SteMRegistry,
    merge_stem_totals,
    stem_build_totals,
)
from repro.core.tuples import install_id_allocator
from repro.engine.config import EngineConfig
from repro.engine.results import ExecutionResult, MultiQueryResult
from repro.engine.instantiate import (
    collect_stems_result,
    instantiate_stems_query,
    make_private_aggregate_module,
    make_private_stem_module,
)
from repro.query.binding import check_query
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.query.query import Query, TableRef
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog

#: What :func:`run_multi` and :func:`run_churn` take besides the engine
#: options (a checkpoint directory makes the run durable, see repro.recovery).
RUN_OPTIONS = ("shared_stems", "until", "checkpoint_dir", "checkpoint_interval")


@dataclass
class QueryAdmission:
    """One query admitted into a multi-query run.

    Attributes:
        query: the query (a :class:`Query` or SQL text).
        query_id: id the run keys this query's results and tuples by;
            defaults to ``q<position>``.
        policy: routing policy name or instance.  Policies are stateful, so
            instances must not be reused across admissions; names are
            instantiated fresh per admission.
        arrival_time: virtual time at which the query is admitted (its scans
            start streaming then — the staggered-arrival knob).
        preferences: user-interest preference predicates (paper §4.1).
        trace: optional per-query :class:`TraceLog`.
    """

    query: Query | str
    query_id: str = ""
    policy: RoutingPolicy | str = "benefit"
    arrival_time: float = 0.0
    preferences: tuple = ()
    trace: TraceLog | None = None


@dataclass
class _AdmittedQuery:
    """Internal per-admission state: the parsed query wired onto its eddy."""

    query_id: str
    query: Query
    arrival_time: float
    eddy: Eddy
    started: bool = False


class _TimestampCounter:
    """The global build-timestamp source, peekable for durability.

    Behaves like ``itertools.count(start)`` for the eddies drawing from it,
    but exposes :attr:`next_value` so a checkpoint can persist *where the
    counter is* — a restored engine continues the total order instead of
    re-issuing timestamps already assigned to stored rows.
    """

    __slots__ = ("next_value",)

    def __init__(self, start: int = 1):
        self.next_value = int(start)

    def __iter__(self) -> "_TimestampCounter":
        return self

    def __next__(self) -> int:
        value = self.next_value
        self.next_value = value + 1
        return value


@dataclass(frozen=True)
class ChurnEvent:
    """One entry of a churn schedule: admit or retire at a virtual time.

    Attributes:
        time: virtual time the event fires at.
        action: ``"admit"`` or ``"retire"``.
        admission: the :class:`QueryAdmission` (admit events).
        query_id: the query to tear down (retire events).
    """

    time: float
    action: str
    admission: QueryAdmission | None = None
    query_id: str = ""


#: :class:`MultiQueryEngine`'s own keywords, named when it rejects another.
_ENGINE_KEYWORDS = (
    "shared_stems", "compiled_probes", "columnar", "shards", "continuous",
    "timestamp_start", "start_time", "config",
)


class MultiQueryEngine:
    """Runs a churning fleet of queries on one simulator with shared SteMs.

    Args:
        admissions: the initial queries to admit.  Plain queries/SQL strings
            are accepted and wrapped in default :class:`QueryAdmission`\\ s.
            May be empty only with ``continuous=True`` (a service that will
            receive its first query via :meth:`admit`).
        catalog: tables and access-method declarations (shared by all
            queries).
        shared_stems: share one SteM per base table across queries (the
            paper's §2.1.4 sharing); ``False`` gives every query private
            SteMs — the paper's Figure 1(c) single-query setup, which is how
            ``execute(engine="stems")`` runs its one admission, and the
            ablation baseline: N queries that each run alone on one clock.
        compiled_probes: accepted as None, True or False and ignored (there
            is one probe path); any other value raises
            :class:`~repro.errors.ExecutionError`.
        columnar: accepted as None or False only; any other value raises
            :class:`~repro.errors.ExecutionError`.
        shards: accepted as None or 1 only; any other value raises
            :class:`~repro.errors.ExecutionError`.
        continuous: allow starting with zero admissions (continuous-query
            service mode; queries arrive later via :meth:`admit` or a
            churn schedule).
        timestamp_start: first value of the global build-timestamp counter.
            1 for fresh runs; a restore passes the persisted next value so
            the total order over builds continues where the previous
            incarnation stopped.
        start_time: virtual time the simulator starts at.  0 for fresh
            runs; a restore passes the time of the checkpoint it resumes.
        config: the run's :class:`~repro.engine.config.EngineConfig`;
            without one, ``options`` (the six engine keywords) build it.
            Its SteM bound applies to shared and private SteMs alike.
    """

    def __init__(
        self,
        admissions: Iterable[QueryAdmission | Query | str],
        catalog,
        shared_stems: bool = True,
        compiled_probes: bool | None = None,
        columnar: bool | None = None,
        shards: int | None = None,
        continuous: bool = False,
        timestamp_start: int = 1,
        start_time: float = 0.0,
        config: EngineConfig | None = None,
        **options,
    ):
        # The e2e harness still passes compiled_probes=False, columnar=False
        # and shards=1; ROADMAP item 8(ii) drops them, and these three
        # checks with them.
        if compiled_probes is not None and not isinstance(compiled_probes, bool):
            raise ExecutionError(
                f"compiled_probes={compiled_probes!r}: there is one probe path"
            )
        if columnar not in (None, False):
            raise ExecutionError("the columnar data plane was removed")
        if shards not in (None, 1):
            raise ExecutionError(
                f"shards={shards!r}: hash-partitioned SteMs were removed"
            )
        if config is None:
            config = EngineConfig.from_options("MultiQueryEngine", options, _ENGINE_KEYWORDS)
        elif options:
            raise ExecutionError("pass MultiQueryEngine() a config or engine options, not both")
        self.config = config
        self.catalog = catalog
        self.shared_stems = shared_stems
        self.simulator = Simulator(start_time=start_time)
        bound = config.stem_bound
        self.registry: SteMRegistry | None = (
            SteMRegistry(bound.max_size, bound.eviction, bound.window)
            if shared_stems
            else None
        )
        #: Shared aggregate modules, deduplicated by grouping signature with
        #: owner refcounts — the aggregate analogue of the SteM registry.
        #: Only meaningful with shared SteMs (a private SteM's window is
        #: per-query, so its aggregates cannot be shared either).
        self.aggregate_registry: AggregateRegistry | None = (
            AggregateRegistry() if shared_stems else None
        )
        #: One build-timestamp source for every eddy: the TimeStamp
        #: constraint requires a total order over builds across queries.
        #: ``timestamp_start`` lets a restore continue the persisted total
        #: order instead of re-issuing assigned timestamps.
        self._timestamps = _TimestampCounter(timestamp_start)
        #: Durability hooks: called as ``cb(query_id, admission, query,
        #: start_time, eddy)`` after every successful admission, and
        #: ``cb(query_id, time)`` after every retirement.
        self._admission_listeners: list = []
        self._retire_listeners: list = []
        self._queries: list[_AdmittedQuery] = []
        #: Every query id ever admitted, in admission order (retired ones
        #: included — they keep their slot in the final result).
        self._order: list[str] = []
        self._all_ids: set[str] = set()
        self._admission_counter = 0
        self._started = False
        #: Results snapshotted at retirement, keyed by query id.
        self._retired: dict[str, ExecutionResult] = {}
        #: Stats snapshots of retired queries' *private* SteMs (shared ones
        #: stay live in the registry or fold into its reclaimed totals).
        self._retired_stem_stats: dict[str, dict[str, int]] = {}
        #: The ``RecoveredState`` a restore built this engine from, or None.
        self.recovered_from = None
        for entry in admissions:
            self.admit(entry)
        if not self._queries and not continuous:
            raise ExecutionError("a multi-query run needs at least one admission")

    # -- admission ---------------------------------------------------------------

    def admit(
        self,
        admission: QueryAdmission | Query | str,
        at_time: float | None = None,
    ) -> str:
        """Admit one query — at construction time or onto the *live* run.

        Before :meth:`run` this queues the admission exactly like a
        constructor entry.  Once the simulator is live, the query's modules
        are wired immediately and its scans are scheduled to start at
        ``at_time`` (default: now, or the admission's ``arrival_time`` if
        later): the query immediately probes whatever shared SteM state
        exists, and only sees source rows delivered after its admission.

        Returns the admitted query's id.

        Raises:
            QueryError: when :func:`~repro.query.binding.check_query`
                rejects the query; the engine is then left unchanged.
        """
        if not isinstance(admission, QueryAdmission):
            admission = QueryAdmission(query=admission)
        query = (
            parse_query(admission.query)
            if isinstance(admission.query, str)
            else admission.query
        )
        # §2.2 step 1, before anything below touches engine state: a query
        # this rejects leaves the registry, the ids and the clock as they were.
        binding_plan = check_query(query, self.catalog)
        position = self._admission_counter
        query_id = admission.query_id or f"q{position}"
        if query_id in self._all_ids:
            raise ExecutionError(f"duplicate query id {query_id!r}")
        if admission.arrival_time < 0:
            raise ExecutionError(
                f"arrival_time must be >= 0, got {admission.arrival_time}"
            )
        start_time = at_time if at_time is not None else admission.arrival_time
        if self._started:
            start_time = max(start_time, self.simulator.now)
        policy = (
            make_policy(admission.policy)
            if isinstance(admission.policy, str)
            else admission.policy
        )
        if any(ctx.eddy.policy is policy for ctx in self._queries):
            raise ExecutionError(
                "routing policy instances are stateful and cannot be shared "
                "across admissions; pass a policy name or a fresh instance "
                f"(query {query_id!r})"
            )
        eddy = Eddy(
            self.simulator,
            policy,
            cost_model=self.config.cost_model,
            strict_constraints=self.config.strict_constraints,
            batch_size=self.config.batch_size,
            trace=admission.trace,
            query_id=query_id,
            timestamp_source=self._timestamps,
            layout=PlanLayout(query),
        )
        eddy.preferences = list(admission.preferences)
        instantiate_stems_query(
            query,
            binding_plan,
            self.catalog,
            eddy,
            self._make_stem_module,
            self._make_aggregate_module,
        )
        ctx = _AdmittedQuery(query_id, query, start_time, eddy)
        self._queries.append(ctx)
        self._order.append(query_id)
        self._all_ids.add(query_id)
        self._admission_counter += 1
        if self._started:
            ctx.started = True
            self.simulator.schedule_at(
                start_time, eddy.start, label=f"admit:{query_id}"
            )
        for listener in self._admission_listeners:
            listener(query_id, admission, query, start_time, eddy)
        return query_id

    def resume(self, query_id: str, cut: dict) -> None:
        """Put a query admitted before :meth:`run` back where a checkpoint
        found it (:meth:`Eddy.restore <repro.core.eddy.Eddy.restore>`), in
        place of starting it."""
        ctx = self._ctx(query_id)
        ctx.started = True
        ctx.eddy.restore(cut)

    def add_admission_listener(self, callback) -> None:
        """Register a callback invoked after every successful admission.

        Called as ``callback(query_id, admission, query, start_time, eddy)``
        — the durability layer write-aheads the admission and installs the
        exactly-once emit filter from here.
        """
        self._admission_listeners.append(callback)

    def add_retire_listener(self, callback) -> None:
        """Register a ``callback(query_id, time)`` invoked after every
        retirement."""
        self._retire_listeners.append(callback)

    @property
    def next_build_timestamp(self) -> int:
        """The next value the global build-timestamp counter will issue."""
        return self._timestamps.next_value

    def _make_stem_module(
        self, ref: TableRef, query: Query, owner: str
    ) -> SteMModule:
        """Shared SteM for single-reference tables, private otherwise."""
        costs = self.config.cost_model
        if self.registry is not None and len(query.aliases_of_table(ref.table)) == 1:
            stem = self.registry.stem_for(
                ref.table,
                ref.alias,
                query.join_columns_of(ref.alias),
                owner=owner,
            )
            return SharedSteMModule(
                stem,
                ref.alias,
                query.predicates,
                build_cost=costs.stem_build_cost,
                probe_cost=costs.stem_probe_cost,
            )
        return make_private_stem_module(ref, query, costs, self.config.stem_bound)

    def _make_aggregate_module(
        self, query: Query, stem_module, owner: str
    ) -> AggregateModule:
        """Shared aggregate module when the backing SteM is shared.

        Queries with the same grouping signature (table, group columns,
        aggregate specs, canonical predicates) maintain **one** module over
        the shared window; anything running on a private SteM keeps a
        private module (its window is per-query state).
        """
        stem = stem_module.stem
        if self.aggregate_registry is not None and self._is_registry_stem(stem):
            return self.aggregate_registry.module_for(query, stem, owner=owner)
        return make_private_aggregate_module(query, stem_module)

    # -- retirement --------------------------------------------------------------

    def retire(self, query_id: str) -> ExecutionResult:
        """Tear one query down and reclaim whatever only it needed.

        The query's results up to now are snapshotted (and reported in the
        final :class:`MultiQueryResult` with ``retired_at`` set), its eddy
        shuts down (scans cancel undelivered rows, queued tuples drop,
        in-flight events become no-ops), its modules detach from the shared
        SteMs, its compiled probe-plan memo is cleared, and the registry
        refcounts are released — reclaiming unreferenced SteMs and the
        secondary indexes only this query's bindings needed.

        Works on the live simulator (typically called from a scheduled
        churn event) and equally after quiescence.
        """
        ctx = self._ctx(query_id)
        now = self.simulator.now
        result = collect_stems_result(ctx.eddy, ctx.query, now)
        result.retired_at = now
        for module in ctx.eddy.stems.values():
            stem = module.stem
            if not self._is_registry_stem(stem):
                self._retired_stem_stats[f"{query_id}:{stem.name}"] = dict(stem.stats)
            module.detach()
        aggregate = ctx.eddy.aggregate_module
        if aggregate is not None:
            shared_aggregate = self.aggregate_registry is not None and any(
                module is aggregate
                for module in self.aggregate_registry.modules.values()
            )
            if not shared_aggregate:
                # Private module: nobody else references it — detach now so
                # the SteM stops keeping a delta for retired state.
                aggregate.detach()
        ctx.eddy.shutdown()
        if self.registry is not None:
            self.registry.release(query_id)
        if self.aggregate_registry is not None:
            # Shared modules detach when their last owner releases.
            self.aggregate_registry.release(query_id)
        # The per-layout probe-plan memo is the one cache shared SteM
        # probes populate for this query; empty it so retired plans do
        # not pin schemas/indexes through the snapshotted result tuples.
        ctx.eddy.layout.probe_plans.clear()
        self._queries.remove(ctx)
        self._retired[query_id] = result
        for listener in self._retire_listeners:
            listener(query_id, now)
        return result

    def _ctx(self, query_id: str) -> _AdmittedQuery:
        for ctx in self._queries:
            if ctx.query_id == query_id:
                return ctx
        if query_id in self._retired:
            raise ExecutionError(f"query {query_id!r} is already retired")
        raise ExecutionError(f"unknown query id {query_id!r}")

    # -- churn scheduling --------------------------------------------------------

    def schedule_churn(self, events: Sequence[ChurnEvent]) -> None:
        """Schedule a whole admission/retirement timeline on the simulator.

        Events fire in time order (ties in the order given); admissions use
        their event time as the query's start time.
        """
        for event in events:
            if event.action == "admit":
                if event.admission is None:
                    raise ExecutionError("admit churn event needs an admission")
                self.simulator.schedule_at(
                    event.time,
                    lambda a=event.admission, t=event.time: self.admit(a, at_time=t),
                    label="churn:admit",
                )
            elif event.action == "retire":
                if not event.query_id:
                    raise ExecutionError("retire churn event needs a query_id")
                self.simulator.schedule_at(
                    event.time,
                    lambda q=event.query_id: self.retire(q),
                    label=f"churn:retire:{event.query_id}",
                )
            else:
                raise ExecutionError(f"unknown churn action {event.action!r}")

    # -- execution ---------------------------------------------------------------

    @property
    def admitted(self) -> tuple[str, ...]:
        """Every query id ever admitted, in admission order."""
        return tuple(self._order)

    @property
    def active(self) -> tuple[str, ...]:
        """The query ids currently live (admitted and not retired)."""
        return tuple(ctx.query_id for ctx in self._queries)

    def eddy_of(self, query_id: str) -> Eddy:
        """The eddy executing one live admitted query."""
        return self._ctx(query_id).eddy

    def aggregate_snapshot(self) -> dict[str, dict]:
        """Live aggregate output per query id (checkpoint observability).

        Restores do not replay this — a restored admission's module
        re-bootstraps from the rebuilt SteM contents — but checkpoints
        carry it so recovery can *verify* the reconstructed state against
        what the lost process had materialised.
        """
        snapshot: dict[str, dict] = {}
        for ctx in self._queries:
            module = ctx.eddy.aggregate_module
            if module is None:
                continue
            snapshot[ctx.query_id] = {
                "labels": list(ctx.query.aggregate_labels),
                "rows": [list(row) for row in module.result_rows()],
            }
        return snapshot

    def run(self, until: float | None = None) -> MultiQueryResult:
        """Start every pending admission at its arrival time and run.

        Runs the simulator to quiescence (or ``until``); may be called
        again to continue a truncated run, and picks up admissions made in
        between.
        """
        if not self._started:
            install_id_allocator()
            self._started = True
        for ctx in self._queries:
            if not ctx.started:
                ctx.started = True
                self.simulator.schedule_at(
                    max(ctx.arrival_time, self.simulator.now),
                    ctx.eddy.start,
                    label=f"admit:{ctx.query_id}",
                )
        final_time = self.simulator.run(until=until)
        return self._collect(final_time)

    # -- collection --------------------------------------------------------------

    def _collect(self, final_time: float) -> MultiQueryResult:
        live = {ctx.query_id: ctx for ctx in self._queries}
        results: dict[str, ExecutionResult] = {}
        for query_id in self._order:
            if query_id in self._retired:
                results[query_id] = self._retired[query_id]
            else:
                ctx = live[query_id]
                results[query_id] = collect_stems_result(ctx.eddy, ctx.query, final_time)
        stem_stats: dict[str, dict[str, int]] = {}

        def merge_stats(key: str, stats: dict[str, int]) -> None:
            bucket = stem_stats.setdefault(key, {})
            for name, value in stats.items():
                bucket[name] = bucket.get(name, 0) + value

        distinct: dict[int, SteM] = {}
        for ctx in self._queries:
            for module in ctx.eddy.stems.values():
                stem = module.stem
                if id(stem) in distinct:
                    continue
                distinct[id(stem)] = stem
                if self._is_registry_stem(stem):
                    key = stem.name
                else:
                    key = f"{ctx.query_id}:{stem.name}"
                merge_stats(key, stem.stats)
        if self.registry is not None:
            # Shared SteMs whose every reader has retired (but which were
            # pinned, e.g. by an anonymous acquisition) are reachable only
            # through the registry.
            for stem in self.registry.stems.values():
                if id(stem) not in distinct:
                    distinct[id(stem)] = stem
                    merge_stats(stem.name, stem.stats)
        totals = stem_build_totals(distinct.values())
        if self.registry is not None:
            for key, stats in self.registry.reclaimed_stats.items():
                merge_stats(key, stats)
                merge_stem_totals(totals, stats)
        for key, stats in self._retired_stem_stats.items():
            merge_stats(key, stats)
            merge_stem_totals(totals, stats)
        return MultiQueryResult(
            results=results,
            final_time=final_time,
            shared_stems=self.shared_stems,
            stem_totals=totals,
            stem_stats=stem_stats,
            registry_stats={
                **(dict(self.registry.stats) if self.registry is not None else {}),
                **(
                    {
                        f"aggregates_{key}": value
                        for key, value in self.aggregate_registry.stats.items()
                    }
                    if self.aggregate_registry is not None
                    else {}
                ),
            },
            retired=tuple(
                query_id for query_id in self._order if query_id in self._retired
            ),
        )

    def _is_registry_stem(self, stem: SteM) -> bool:
        return (
            self.registry is not None
            and self.registry.stems.get(stem.table) is stem
        )

    def __repr__(self) -> str:
        mode = "shared" if self.shared_stems else "private"
        return (
            f"MultiQueryEngine({len(self._queries)} live queries, "
            f"{len(self._retired)} retired, {mode} SteMs)"
        )


def run_multi(
    admissions: Iterable[QueryAdmission | Query | str],
    catalog,
    shared_stems: bool = True,
    until: float | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: float | None = None,
    **options,
) -> MultiQueryResult:
    """Convenience wrapper: build a :class:`MultiQueryEngine` and run it.

    ``options`` are the engine keywords of :func:`~repro.engine.api.execute`
    and :func:`run_churn` (:class:`~repro.engine.config.EngineConfig`); the
    others are :data:`RUN_OPTIONS`: a ``checkpoint_dir`` attaches the
    :mod:`repro.recovery` WAL/snapshot layer so a killed run can be
    recovered with :func:`repro.recovery.restore_engine`.
    """
    config = EngineConfig.from_options("run_multi", options, RUN_OPTIONS)
    engine = MultiQueryEngine(admissions, catalog, shared_stems=shared_stems, config=config)
    return _run_durably(engine, until, checkpoint_dir, checkpoint_interval)


def _run_durably(
    engine: MultiQueryEngine,
    until: float | None,
    checkpoint_dir: str | None,
    checkpoint_interval: float | None,
) -> MultiQueryResult:
    """Run the engine, optionally under a checkpoint/WAL manager.

    The import is lazy: :mod:`repro.recovery` builds *on top of* the engine
    layer, so the engine must not import it at module scope.
    """
    if checkpoint_dir is None:
        if checkpoint_interval is not None:
            raise ExecutionError(
                "checkpoint_interval requires checkpoint_dir "
                "(an interval without a durability directory does nothing)"
            )
        return engine.run(until=until)
    from repro.recovery import CheckpointManager

    manager = CheckpointManager.attach(
        engine, checkpoint_dir, interval=checkpoint_interval
    )
    try:
        result = engine.run(until=until)
    finally:
        manager.close()
    return result


def run_churn(
    events: Sequence[ChurnEvent],
    catalog,
    shared_stems: bool = True,
    until: float | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: float | None = None,
    **options,
) -> MultiQueryResult:
    """Run a churn schedule (dynamic admissions and retirements) to the end.

    Builds a continuous-mode :class:`MultiQueryEngine`, schedules every
    :class:`ChurnEvent` on the simulator, and runs — queries are created at
    their admission instants on the live run, and torn down again at their
    retirement instants.  Takes the keywords of :func:`run_multi`.
    """
    config = EngineConfig.from_options("run_churn", options, RUN_OPTIONS)
    engine = MultiQueryEngine(
        [], catalog, shared_stems=shared_stems, continuous=True, config=config
    )
    engine.schedule_churn(events)
    return _run_durably(engine, until, checkpoint_dir, checkpoint_interval)
