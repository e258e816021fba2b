"""The eddy: the adaptive tuple router at the heart of the architecture.

Paper section 2.1.1: "The eddy's role is to continuously route tuples among
the rest of the modules, according to a routing policy. ... A tuple is
removed from the eddy's dataflow and sent to the output if it spans all base
tables and is verified to pass all predicates.  The eddy terminates the query
when there are no tuples in the dataflow, and each module has finished
processing all the tuples sent to it."

The eddy here is deliberately *mechanism only*:

* a :class:`DestinationResolver` (normally the
  :class:`~repro.core.constraints.ConstraintChecker`) says which routings are
  legal and when a tuple is ready for output;
* a :class:`~repro.core.policies.base.RoutingPolicy` chooses among the legal
  destinations;
* the eddy executes the choices on the discrete-event simulator, handles
  module backpressure, collects outputs, and detects termination.

Every decision goes through the :class:`~repro.core.constraints.RoutePlan`
of a routing signature (:meth:`~repro.core.tuples.QTuple.routing_signature`):
output test, legal destinations and the policy's fixed choice, if it has
one, memoized by the constraint checker until module liveness changes;
only without a fixed choice is the policy's ``choose_batch`` asked.  With
``batch_size > 1`` each event drains up to ``batch_size`` ready tuples
and makes one decision per signature group.  Routing
remains semantically per-tuple — visit bookkeeping, strict validation and
tracing are still applied to every tuple — so a *complete* run produces a
result set identical to per-tuple routing.  Intermediate timing does
change: a batch is delivered at one event time and stochastic policies
draw their RNG once per group, so output timestamps (and hence the
partial results of a run truncated with ``until=``) may differ slightly.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

from repro.errors import ExecutionError
from repro.core.constraints import UNCHOSEN, ConstraintChecker, Destination, RoutePlan
from repro.core.costs import CostModel
from repro.core.modules.access import IndexAMModule, ScanAMModule
from repro.core.modules.base import Module, Routable
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.policies.base import RoutingPolicy
from repro.core.tuples import EOTTuple, QTuple
from repro.query.layout import PlanLayout
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog


class DestinationResolver(Protocol):
    """What the eddy needs to know about the architecture it is routing for."""

    def destinations(self, tuple_: QTuple) -> list[Destination]:
        """Legal destinations for a tuple."""

    def ready_for_output(self, tuple_: QTuple) -> bool:
        """True if the tuple is a finished query result."""

    def route_plan(self, signature: tuple, exemplar: QTuple) -> RoutePlan:
        """The plan of every tuple with this routing signature (cached or not)."""


@dataclass(slots=True)
class OutputRecord:
    """One emitted result tuple, with the virtual time it was produced."""

    time: float
    tuple: QTuple


@dataclass
class QuarantineRecord:
    """One poisoned tuple pulled out of the dataflow, with its provenance.

    A predicate or extractor that raises mid-probe would otherwise
    propagate out of the module's service event and wedge the whole
    simulator; instead the tuple is trapped here with the module that
    tripped and the error text, the eddy's accounting treats it like a
    retired tuple, and processing continues.
    """

    time: float
    tuple: QTuple
    module: str
    error: str


class Eddy:
    """The routing operator.

    Args:
        simulator: the discrete-event simulator driving execution.
        policy: the routing policy.
        resolver: legal-destination resolver (ConstraintChecker for the SteM
            architecture, a join-module resolver for the Figure 1(b) baseline).
        cost_model: per-operation virtual-time costs.
        strict_constraints: re-validate every policy choice and raise
            :class:`RoutingViolationError` on violations (useful for testing
            custom policies; adds overhead).
        max_routing_steps: safety bound on total routing decisions.
        batch_size: maximum ready tuples drained per routing event.  With
            the default of 1 the eddy routes exactly like the paper's
            per-tuple eddy.  With a larger batch each ``eddy:route`` event
            drains up to ``batch_size`` tuples, groups them by routing
            signature (see :meth:`QTuple.routing_signature`), resolves the
            legal destinations once per signature group, and charges one
            ``route_cost`` per *decision* (per group) instead of per tuple —
            the amortisation that makes routing overhead sublinear in the
            tuple rate under heavy traffic.
    """

    def __init__(
        self,
        simulator: Simulator,
        policy: RoutingPolicy,
        resolver: DestinationResolver | None = None,
        cost_model: CostModel | None = None,
        strict_constraints: bool = False,
        max_routing_steps: int = 10_000_000,
        trace: TraceLog | None = None,
        batch_size: int = 1,
        query_id: str = "",
        timestamp_source: Iterator[int] | None = None,
        layout: "PlanLayout | None" = None,
    ):
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        self.sim = simulator
        self.policy = policy
        self.set_resolver(resolver)
        self.costs = cost_model or CostModel()
        self.strict_constraints = strict_constraints
        self.max_routing_steps = max_routing_steps
        self.trace = trace
        self.batch_size = batch_size
        #: The query's compiled :class:`~repro.query.layout.PlanLayout`.
        #: Engines assign it right after instantiation; every tuple entering
        #: the dataflow is bound to it so its TupleState masks, the
        #: constraint checker's bitwise rules, and the destination-signature
        #: cache all speak the same integer domain.  None only for bare
        #: eddies built in unit tests (tuples then keep the fallback space).
        self.layout: PlanLayout | None = layout
        #: Identifier of the query this eddy executes.  Empty for single-
        #: query engines; the multi-query engine names each eddy after its
        #: admission and every tuple entering the dataflow is stamped with it.
        self.query_id = query_id
        #: The query's :class:`~repro.core.aggregates.AggregateModule`
        #: (GROUP BY queries only).  It is not routed — it listens on the
        #: SteM directly — but lives here so result collection and
        #: retirement teardown find it next to the modules it feeds off.
        self.aggregate_module = None
        #: False once :meth:`shutdown` ran (query retirement): the dataflow
        #: no longer accepts tuples and stray in-flight events become no-ops.
        self.live = True
        #: Virtual time :meth:`start` ran at (None before): every scan's
        #: delivery stream is relative to it.
        self.started_at: float | None = None

        #: Tuples waiting for a routing decision, oldest first (unbounded:
        #: backpressure lives on the module queues).
        self._ready: deque[Routable] = deque()
        self._blocked: dict[str, deque[Routable]] = {}
        self._routing_scheduled = False
        #: Virtual time before which no routing event may fire: the routing
        #: CPU is considered busy until the last batch's per-decision charge
        #: has elapsed, even across moments when the ready queue runs dry.
        self._route_not_before = 0.0
        #: Build-timestamp source.  Normally private; when SteMs are shared
        #: across queries every participating eddy must draw from ONE source,
        #: because the TimeStamp constraint needs a total order over builds
        #: regardless of which query performed them.
        self._timestamps = timestamp_source or itertools.count(1)
        #: User-interest preference predicates (paper §4.1): not filters,
        #: they only raise the priority of matching tuples so policies can
        #: favour them.
        self.preferences: list = []

        #: Module registries (populated by register_* methods).
        self.modules: dict[str, Module] = {}
        self.stems: dict[str, SteMModule] = {}
        self.selections: list[SelectionModule] = []
        self.scan_ams: dict[str, list[ScanAMModule]] = {}
        self.index_ams: dict[str, list[IndexAMModule]] = {}
        self.join_modules: list[Module] = []

        #: Emission hook: called with every emitted result tuple *before*
        #: control returns to routing.  The durability layer uses it to
        #: write-ahead an acknowledgement record, making "emitted" mean
        #: "durably acknowledged" for the exactly-once recovery protocol.
        self.on_emit = None
        #: Exactly-once suppression filter installed by crash recovery:
        #: called with each would-be result tuple, returns False when the
        #: result was already durably acknowledged before the crash.  A
        #: suppressed tuple still feeds the policy's output feedback (the
        #: replayed run must make the same adaptive decisions as the
        #: original), but is not appended to the output columns and does not
        #: reach :attr:`on_emit` again.
        self.emit_filter = None
        #: Poisoned tuples trapped out of the dataflow (raising predicate
        #: or extractor), in trap order.
        self.quarantine: list[QuarantineRecord] = []

        #: Results as two aligned columns, in output order (:attr:`outputs` zips them).
        self.output_times: list[float] = []
        self.output_tuples: list[QTuple] = []
        #: ``spanned_mask -> (aliases, entry times)`` of the composite
        #: tuples that entered the dataflow; see :attr:`partial_series`.
        self._partial: dict[int, tuple[frozenset[str], list[float]]] = {}
        self.stats: dict[str, int] = {
            "routings": 0,
            "route_events": 0,
            "route_decisions": 0,
            "retired": 0,
            "dropped_failed": 0,
            "absorbed": 0,
            "eots_routed": 0,
            "blocked_offers": 0,
            "liveness_changes": 0,
            "quarantined": 0,
            "suppressed_emits": 0,
        }

    # -- module registration -----------------------------------------------------

    def _register(self, module: Module) -> None:
        if module.name in self.modules:
            raise ExecutionError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module
        module.attach(self)

    def register_stem(self, alias: str, module: SteMModule) -> None:
        """Register the SteM serving an alias."""
        self._register(module)
        self.stems[alias] = module

    def register_selection(self, module: SelectionModule) -> None:
        """Register a selection module."""
        self._register(module)
        self.selections.append(module)

    def register_scan_am(self, alias: str, module: ScanAMModule) -> None:
        """Register a scan access module feeding an alias."""
        self._register(module)
        self.scan_ams.setdefault(alias, []).append(module)

    def register_index_am(self, alias: str, module: IndexAMModule) -> None:
        """Register an index access module on an alias."""
        self._register(module)
        self.index_ams.setdefault(alias, []).append(module)

    def register_join_module(self, module: Module) -> None:
        """Register an encapsulated join module (Figure 1(b) baseline)."""
        self._register(module)
        self.join_modules.append(module)

    def set_resolver(self, resolver: DestinationResolver | None) -> None:
        """Attach the destination resolver (after modules are registered)."""
        self.resolver = resolver

    # -- EddyRuntime interface (used by modules) -----------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def schedule(self, delay: float, callback, label: str = ""):
        """Schedule a callback on the simulator; returns the Event handle."""
        return self.sim.schedule(delay, callback, label)

    def reserve(self, delays, base: float | None = None):
        """Reserve the slots :meth:`schedule` would give these delays now
        (or would have given them at ``base``)."""
        return self.sim.reserve(delays, base)

    def schedule_reserved(self, slot, callback, label: str = ""):
        """Schedule a callback in a reserved slot; returns the Event handle.

        Modules that must be cancellable on retirement (a scan's armed
        delivery) keep the returned handle and pass it back to :meth:`cancel`.
        """
        return self.sim.schedule_reserved(slot, callback, label)

    def cancel(self, event) -> None:
        """Cancel a scheduled event (no-op once it has fired)."""
        self.sim.cancel(event)

    def next_timestamp(self) -> float:
        """Next global build timestamp (a monotonically increasing integer)."""
        return float(next(self._timestamps))

    def has_scan_am(self, alias: str) -> bool:
        """True if the alias is fed by at least one scan access method."""
        return bool(self.scan_ams.get(alias))

    def expected_scan_wait(self, alias: str) -> float | None:
        """Expected wait for a specific matching tuple to arrive by scan.

        Returns None when no scan will deliver it (no scan AM, or all scans
        already finished).
        """
        ams = self.scan_ams.get(alias)
        if not ams:
            return None
        remaining = [am.expected_remaining_time() for am in ams if not am.finished]
        if not remaining:
            return None
        # The matching tuple is equally likely anywhere in the remainder.
        return 0.5 * min(remaining)

    def to_eddy(self, item: Routable, source: Module | None = None) -> None:
        """Deliver a tuple (or EOT) into the eddy's dataflow."""
        self.to_eddy_all((item,), source)

    def to_eddy_all(self, items: Sequence[Routable], source: Module | None = None) -> None:
        """Deliver what one producer call produced — a probe returns the *set*
        of its matches (paper §2.1.2) — in order, in one hand-off: each item
        takes the steps of a single delivery, on admission state read once."""
        if not self.live:
            # The query was retired: whatever in-flight work still completes
            # (an outstanding index lookup, a busy module) has no dataflow
            # to return to.
            return
        # Production feedback for learning policies: consumption is observed
        # in choose(), production here, and the difference is the
        # selectivity signal (lottery's ticket escrow).
        policy = None if source is None else self.policy
        layout, query_id, preferences = self.layout, self.query_id, self.preferences
        ready, armed = self._ready, self._routing_scheduled
        for item in items:
            if policy is not None:
                policy.on_producer_output(source, item, self)
            if isinstance(item, QTuple):
                if layout is not None and item.layout is not layout:
                    # First entry of a tuple created before the layout was
                    # known (or against the fallback space): re-encode its
                    # masks over this query's compiled layout.
                    item.bind_layout(layout)
                if query_id and not item.query_id:
                    item.query_id = query_id
                for preference in preferences:
                    if (
                        preference.priority > item.priority
                        and preference.can_evaluate(item.aliases)
                        and preference.evaluate(item.components)
                    ):
                        item.priority = preference.priority
                if not item.visits_token and len(item.components) > 1:
                    # Count each composite only on its first entry into the
                    # dataflow (bounce-backs would otherwise double-count it).
                    entry = self._partial.get(item.spanned_mask)
                    if entry is None:
                        entry = self._partial[item.spanned_mask] = (item.aliases, [])
                    entry[1].append(self.sim.now)
            ready.append(item)
            if not armed:
                self._schedule_routing()
                armed = True

    def notify_idle(self, module: Module) -> None:
        """Retry offers that were blocked on the module's full queue."""
        blocked = self._blocked.get(module.name)
        while blocked and not module.queue.is_full:
            item = blocked.popleft()
            if not module.offer(item):
                blocked.appendleft(item)
                break

    def note_absorbed(self, tuple_: QTuple) -> None:
        """A module absorbed a tuple (e.g. a duplicate build ended at a SteM).

        The tuple left the dataflow without passing through routing again,
        so the departure is accounted for here: retirement feedback for the
        policy, and a trace record — keeping the invariant that a trace
        accounts for every tuple that ever leaves the dataflow.
        """
        self.stats["absorbed"] += 1
        self.policy.on_retire(tuple_, self)
        if self.trace is not None:
            self.trace.record(self.now, "absorbed", tuple_.tuple_id)

    def notice_liveness_change(self) -> None:
        """A module's liveness changed (a scan finished, a SteM sealed).

        Invalidates the resolver's destination-signature cache, if it keeps
        one.
        """
        self.stats["liveness_changes"] += 1
        invalidate = getattr(self.resolver, "notice_liveness_change", None)
        if invalidate is not None:
            invalidate()

    # -- execution ------------------------------------------------------------------

    def start(self) -> None:
        """Start all modules (scans begin delivering) and the routing loop.

        A no-op once the eddy has been shut down: a query may be retired
        *before* its scheduled start event fires, and the dead dataflow
        must not begin streaming then.
        """
        if not self.live:
            return
        self.started_at = self.sim.now
        for module in self.modules.values():
            module.start()
        self._schedule_routing()

    def cut(self) -> dict:
        """Where this dataflow stands, read between two events.

        Everything a later :meth:`restore` needs to carry on from here and
        still produce every result exactly once: when the scans started,
        each module's :meth:`~repro.core.modules.base.Module.cut`, and every
        routable the eddy itself holds (ready deque, blocked offers), in
        order.  Policy state, the destination cache, statistics and tuple
        ids are deliberately absent — they start afresh, because any routing
        the constraints allow is a right one (paper §3).
        """
        return {
            "started_at": self.started_at,
            "ready": list(self._ready),
            "blocked": {name: list(items) for name, items in self._blocked.items() if items},
            "modules": {name: module.cut() for name, module in self.modules.items()},
        }

    def restore(self, cut: dict) -> None:
        """Put a :meth:`cut` back on the freshly wired eddy, in place of
        :meth:`start`: every item returns to the very deque or queue it was
        taken from, and whatever was armed is armed again."""
        self.started_at = cut["started_at"]
        if set(cut["modules"]) != set(self.modules) or set(cut["blocked"]) - set(self.modules):
            raise ExecutionError(
                f"the cut of query {self.query_id!r} was taken over modules "
                f"{sorted(cut['modules'])}, this query has {sorted(self.modules)}"
            )
        for name, module in self.modules.items():
            module.restore(cut["modules"][name])
        for name, items in cut["blocked"].items():
            self._blocked[name] = deque(items)
        self._ready.extend(cut["ready"])
        self._schedule_routing()

    def shutdown(self) -> None:
        """Tear the dataflow down (query retirement).

        Stops every module (scans cancel their remaining deliveries), drops
        the tuples still waiting for routing or service, and marks the eddy
        dead so events already in flight on the simulator — service
        completions, outstanding index lookups — become no-ops instead of
        feeding a dataflow that no longer exists.  Idempotent.
        """
        if not self.live:
            return
        self.live = False
        for module in self.modules.values():
            module.stop()
            module.queue.clear()
        self._ready.clear()
        self._blocked.clear()

    def run(self, until: float | None = None) -> float:
        """Start the query and run the simulator to completion (or ``until``)."""
        self.start()
        return self.sim.run(until=until)

    def _schedule_routing(self) -> None:
        if not self.live or self._routing_scheduled or not self._ready:
            return
        self._routing_scheduled = True
        sim = self.sim
        time = sim.now + self.costs.route_cost
        if time < self._route_not_before:
            time = self._route_not_before
        sim.schedule_at(time, self._route_next, "eddy:route")

    def _route_next(self) -> None:
        self._routing_scheduled = False
        ready = self._ready
        if not self.live or not ready:
            return
        item = ready.popleft()
        batch: list[Routable] | None = None
        if ready and self.batch_size > 1:
            batch = [item]
            while len(batch) < self.batch_size and ready:
                batch.append(ready.popleft())
        stats = self.stats
        stats["route_events"] += 1
        stats["routings"] += 1 if batch is None else len(batch)
        if stats["routings"] > self.max_routing_steps:
            raise ExecutionError(
                f"exceeded {self.max_routing_steps} routing steps; "
                "likely an infinite routing loop"
            )
        if batch is not None:
            decisions = self._route_batch(batch)
        elif isinstance(item, EOTTuple):
            self._route_eot(item)
            decisions = 1
        elif item.failed:
            self._drop_failed(item)
            decisions = 0
        else:
            # One tuple: no grouping to do.
            self._route_group(item.routing_signature(), [item])
            decisions = 1
        stats["route_decisions"] += decisions
        # The batch consumed one route_cost per decision of virtual CPU
        # time; charge it by keeping the routing CPU busy until it has
        # elapsed — also across queue-empty gaps — preserving per-decision
        # virtual-time semantics (with batch_size=1 this is exactly the
        # per-tuple eddy's cadence).
        self._route_not_before = self.sim.now + self.costs.route_cost * (decisions or 1)
        if ready:
            self._schedule_routing()

    def _route_batch(self, batch: Sequence[Routable]) -> int:
        """Route one drained batch; return the number of routing decisions.

        QTuples are grouped by routing signature; each group is one decision
        (EOTs are routed individually).  Within a group and across groups the
        drain order is preserved, so a batch of one degenerates to the
        original per-tuple router.
        """
        pending: list[EOTTuple | tuple[tuple, list[QTuple]]] = []
        groups: dict[tuple, list[QTuple]] = {}
        for item in batch:
            if isinstance(item, EOTTuple):
                # An EOT is an ordering barrier: tuples drained after it may
                # not coalesce into groups routed before it (their probes
                # must observe the post-EOT module state, as per-tuple
                # routing would).
                pending.append(item)
                groups = {}
                continue
            if item.failed:
                self._drop_failed(item)
                continue
            signature = item.routing_signature()
            group = groups.get(signature)
            if group is None:
                group = groups[signature] = []
                pending.append((signature, group))
            group.append(item)
        decisions = 0
        for entry in pending:
            decisions += 1
            if isinstance(entry, EOTTuple):
                self._route_eot(entry)
            else:
                signature, group = entry
                self._route_group(signature, group)
        return decisions

    def _route_eot(self, eot: EOTTuple) -> None:
        self.stats["eots_routed"] += 1
        stem = self.stems.get(eot.alias)
        if stem is not None:
            self._deliver(stem, eot)

    def _route_group(self, signature: tuple, group: list[QTuple]) -> None:
        """Route one signature group by its route plan."""
        resolver = self.resolver
        plan = resolver.route_plan(signature, group[0])
        if plan.output:
            # Output readiness is signature-pure (span + done bits): the
            # whole group is emitted, at one virtual time.
            now = self.sim.now
            emit_filter, on_emit, trace = self.emit_filter, self.on_emit, self.trace
            on_output = self.policy.on_output
            append_time, append_tuple = self.output_times.append, self.output_tuples.append
            for tuple_ in group:
                if emit_filter is not None and not emit_filter(tuple_):
                    # Already acknowledged before a crash: keep the policy
                    # feedback (behavioural identity with the uninterrupted
                    # run) but do not expose or re-acknowledge the result.
                    self.stats["suppressed_emits"] += 1
                    on_output(tuple_, self)
                    if trace is not None:
                        trace.record(now, "output_suppressed", tuple_.tuple_id)
                    continue
                append_time(now)
                append_tuple(tuple_)
                if on_emit is not None:
                    on_emit(tuple_)
                on_output(tuple_, self)
                if trace is not None:
                    trace.record(now, "output", tuple_.tuple_id)
            return
        destinations = plan.destinations
        if not destinations:
            for tuple_ in group:
                self._retire(tuple_)
            return
        choice = plan.choice
        if choice is UNCHOSEN:
            choice = plan.choice = self.policy.fixed_choice(destinations)
        if choice is not None:
            choices = (choice,) * len(group)
        else:
            choices = self.policy.choose_batch(group, destinations, self)
            if len(choices) != len(group):
                raise ExecutionError(
                    f"policy {self.policy.name!r} returned {len(choices)} choices "
                    f"for a signature group of {len(group)} tuples"
                )
        validate = self.strict_constraints and isinstance(resolver, ConstraintChecker)
        trace = self.trace
        for tuple_, choice in zip(group, choices):
            if choice is None:
                # Policies may not decline required work.
                choice = next((d for d in destinations if d.required), None)
                if choice is None:
                    self._retire(tuple_)
                    continue
            if validate:
                resolver.validate(tuple_, choice)
            module = choice.module
            if trace is not None:
                trace.record(self.sim.now, "route", (tuple_.tuple_id, module.name))
            tuple_.record_visit(module.name)
            self._deliver(module, tuple_)

    def _deliver(self, module: Module, item: Routable) -> None:
        if not module.offer(item):
            self.stats["blocked_offers"] += 1
            self._blocked.setdefault(module.name, deque()).append(item)

    def _retire(self, tuple_: QTuple) -> None:
        self.stats["retired"] += 1
        self.policy.on_retire(tuple_, self)
        if self.trace is not None:
            self.trace.record(self.sim.now, "retire", tuple_.tuple_id)

    def quarantine_tuple(self, tuple_: QTuple, module: str, error: Exception) -> None:
        """Trap a poisoned tuple out of the dataflow (graceful degradation).

        Modules call this when a user predicate or extractor raises while
        processing ``tuple_``: instead of the exception propagating out of
        the service event and wedging the simulator, the tuple is recorded
        in :attr:`quarantine` with the raising module and error, accounted
        to the policy like a retirement (its lineage must not be considered
        in-flight forever), traced, and dropped.  The rest of the batch —
        and every other query — keeps running.
        """
        self.stats["quarantined"] += 1
        self.quarantine.append(
            QuarantineRecord(self.now, tuple_, module, f"{type(error).__name__}: {error}")
        )
        self.policy.on_retire(tuple_, self)
        if self.trace is not None:
            self.trace.record(self.now, "quarantine", tuple_.tuple_id)

    def _drop_failed(self, tuple_: QTuple) -> None:
        """Drop a tuple that failed a predicate, with full accounting.

        Failed tuples leave the dataflow like retired ones: the policy's
        ``on_retire`` feedback fires and the trace records the departure, so
        a trace accounts for every tuple that ever entered the eddy.
        """
        self.stats["dropped_failed"] += 1
        self.policy.on_retire(tuple_, self)
        if self.trace is not None:
            self.trace.record(self.now, "drop_failed", tuple_.tuple_id)

    # -- results ---------------------------------------------------------------------

    @property
    def partial_series(self) -> dict[frozenset[str], list[float]]:
        """Times at which composite (partial-result) tuples of each span
        first entered the dataflow, spans in first-appearance order — the
        "partial results" the paper's interactive/FFF setting cares about
        (section 3.4's motivation for adaptive spanning trees)."""
        return dict(self._partial.values())

    @property
    def outputs(self) -> list[OutputRecord]:
        """The results as ``(time, tuple)`` records: a fresh list zipped
        from :attr:`output_times` and :attr:`output_tuples` on every read."""
        return list(map(OutputRecord, self.output_times, self.output_tuples))

    @property
    def result_tuples(self) -> list[QTuple]:
        """The emitted result tuples, in output order."""
        return list(self.output_tuples)

    def output_series(self) -> list[tuple[float, int]]:
        """Cumulative (time, result count) series — the paper's y-axis."""
        return list(zip(self.output_times, itertools.count(1)))

    @property
    def completion_time(self) -> float | None:
        """Virtual time of the last output, or None if nothing was produced."""
        return self.output_times[-1] if self.output_times else None

    def __repr__(self) -> str:
        return (
            f"Eddy(policy={self.policy.name}, modules={len(self.modules)}, "
            f"outputs={len(self.output_tuples)})"
        )
