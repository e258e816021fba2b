"""The SteM as an eddy-routable module.

Wraps a :class:`repro.core.stem.SteM` data structure with the service-loop
behaviour of a module: builds and probes are requests arriving on the input
queue, each with its own (small, main-memory) cost.  This is the crucial
architectural difference from the encapsulated join modules: cache/SteM
probes and remote index lookups live in *different* modules with *separate*
queues, so a cheap probe never waits behind an expensive index lookup
(paper section 4.2).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExecutionError
from repro.core.modules.base import Module, Routable
from repro.core.stem import SteM
from repro.core.tuples import EOTTuple, QTuple
from repro.query.predicates import Predicate
from repro.query.probeplan import ProbePlan


class SteMModule(Module):
    """Eddy-facing wrapper around a SteM.

    Args:
        stem: the underlying state module.
        predicates: all query predicates (the module selects the evaluable,
            not-yet-done subset for each probe).
        build_cost: virtual seconds per build request.
        probe_cost: virtual seconds per probe request.
        name: module name within the eddy; defaults to the SteM's name.  A
            shared SteM is named after its table while each query's module
            keeps the per-alias name policies and traces expect.
        aliases: the query aliases this *module* serves; defaults to the
            SteM's aliases.  When the SteM is shared across queries it
            accumulates every query's aliases, so each module must restrict
            itself to its own query's view.
    """

    kind = "stem"

    def __init__(
        self,
        stem: SteM,
        predicates: Sequence[Predicate],
        build_cost: float = 1e-4,
        probe_cost: float = 2e-4,
        name: str | None = None,
        aliases: Sequence[str] | None = None,
    ):
        super().__init__(name or stem.name, cost=probe_cost)
        self.stem = stem
        self.aliases = tuple(aliases) if aliases is not None else stem.aliases
        self.predicates = tuple(predicates)
        self.build_cost = build_cost
        self.probe_cost = probe_cost
        self.stats.update({"builds": 0, "probes": 0, "results": 0, "duplicates": 0})
        #: Per-probe-signature (spanned_mask, done_mask) → [probes, results].
        #: Probes from different tuple states can have wildly different
        #: match rates (a half-spanned composite vs a fresh singleton);
        #: benefit routing consults these before falling back to the
        #: module-wide average.
        self.signature_stats: dict[tuple[int, int], list[int]] = {}
        #: The item :meth:`service_time` last classified, and whether it is
        #: a build: :meth:`process` reuses the verdict for that same item.
        self._classified: QTuple | None = None
        self._classified_build = False

    # -- service ------------------------------------------------------------------

    def service_time(self, item: Routable) -> float:
        if isinstance(item, EOTTuple):
            return self.build_cost
        assert isinstance(item, QTuple)
        is_build = self._classified_build = self._is_build(item)
        self._classified = item
        return self.build_cost if is_build else self.probe_cost

    def _is_build(self, item: QTuple) -> bool:
        """A singleton of this SteM's table that has not been built yet."""
        if item._head:
            return False
        alias = item._aliases[0]
        return alias in self.aliases and not (item.built_mask and item.has_built(alias))

    def process(self, item: Routable) -> list[Routable]:
        assert self.runtime is not None
        if isinstance(item, EOTTuple):
            self.stem.build_eot(item)
            return []
        assert isinstance(item, QTuple)
        if item is self._classified:
            self._classified = None
            is_build = self._classified_build
        else:
            is_build = self._is_build(item)
        if is_build:
            return self._handle_build(item)
        return self._handle_probe(item)

    # -- builds -------------------------------------------------------------------

    def _handle_build(self, item: QTuple) -> list[Routable]:
        assert self.runtime is not None
        alias = item.single_alias
        row = item.component(alias)
        try:
            outcome = self.stem.build(row, self.runtime.next_timestamp())
        except ExecutionError:
            raise
        except Exception as error:
            self._trap_poison(item, error)
            return []
        self.stats["builds"] += 1
        if outcome.duplicate:
            # SteM BounceBack constraint: duplicates are NOT bounced back;
            # the redundant work of a competing AM ends here.
            self.stats["duplicates"] += 1
            self.runtime.note_absorbed(item)
            return []
        item.mark_built(alias, outcome.timestamp)
        return [item]

    def _trap_poison(self, item: QTuple, error: Exception) -> None:
        """Quarantine a tuple whose predicate/extractor raised mid-service.

        Wiring errors (:class:`ExecutionError`) are never trapped — they are
        engine bugs, not poison data.
        """
        self.runtime.quarantine_tuple(item, self.name, error)

    # -- probes -------------------------------------------------------------------

    def _handle_probe(self, item: QTuple) -> list[Routable]:
        assert self.runtime is not None
        target = self._probe_target(item)
        if target is None:
            # Nothing to extend toward (e.g. self-join fully spanned): no-op.
            self.stats["probes"] += 1
            return [item]
        try:
            outcome = self.stem.probe_with_plan(item, self.probe_plan_for(item, target))
        except ExecutionError:
            raise
        except Exception as error:
            # Poison probe: the SteM's counters were left untouched (stats
            # commit only after its candidate loop), so trapping here keeps
            # every counter consistent with the work actually done.
            self._trap_poison(item, error)
            return []
        self.stats["probes"] += 1
        self.stats["results"] += len(outcome.results)
        key = (item.spanned_mask, item.done_mask)
        counters = self.signature_stats.get(key)
        if counters is None:
            counters = self.signature_stats[key] = [0, 0]
        counters[0] += 1
        counters[1] += len(outcome.results)
        if outcome.results:
            # n-ary SHJ discipline: once a probe produced concatenations, the
            # original tuple stops probing further SteMs; its extensions
            # carry the derivation forward (keeps derivations tree-shaped).
            item.stop_stem_probes = True
        covered = self._covers_probe(item, target, outcome)
        if covered:
            # No AM probe on the target can produce anything new.
            item.mark_exhausted(target)
        if covered or self.runtime.has_scan_am(target):
            # Either we already returned every match, or the scan on the
            # target table will eventually deliver the missing ones and they
            # will find this tuple in its own SteM.  No AM probe is required.
            item.mark_resolved(target)
        else:
            # SteM BounceBack: the probe must stay in the dataflow until it
            # has been probed into an access method on the target table
            # (ProbeCompletion constraint, paper section 3.4).
            item.probe_completion_alias = target
        outcome.results.append(item)
        return outcome.results

    def _probe_target(self, item: QTuple) -> str | None:
        for alias in self.aliases:
            if alias not in item.aliases:
                return alias
        return None

    def _pending_predicates(self, item: QTuple, target: str) -> list[Predicate]:
        """The not-yet-done predicates evaluable once ``target`` is filled."""
        return [
            predicate
            for predicate in self.predicates
            if not item.is_done(predicate)
            and predicate.can_evaluate(item.aliases | {target})
        ]

    def probe_plan_for(self, item: QTuple, target: str | None = None) -> ProbePlan:
        """The compiled :class:`ProbePlan` for a tuple's probe situation.

        Plans are memoized per ``(module, spanned_mask, done_mask)`` on the
        tuple's :class:`~repro.query.layout.PlanLayout`: every tuple of one
        routing-signature group (and every later tuple in the same
        situation) reuses the plan, so a whole delivered batch pays for one
        dictionary hit instead of re-deriving bindings per tuple — and the
        cache lives with the query layout whose bit assignment the masks
        are encoded over, so queries sharing this SteM never mix plans.
        """
        cache = item.layout.probe_plans
        key = (self.name, item.spanned_mask, item.done_mask)
        plan = cache.get(key)
        if plan is None:
            if target is None:
                target = self._probe_target(item)
            plan = ProbePlan.compile(
                self._pending_predicates(item, target),
                target,
                item.components,
                target_schema=self.stem.row_schema,
            )
            cache[key] = plan
        return plan

    def detach(self) -> None:
        """Sever this module's hold on shared state (query retirement).

        A private SteM module holds none; the shared wrapper unhooks itself
        from the SteM's evict listeners.
        """

    def cut(self) -> dict:
        """A private SteM (a self-join alias) belongs to its query's cut: the
        SteM itself rides under ``stem`` for the checkpoint to persist like
        a shared table, and is reinstalled before :meth:`restore` runs."""
        return {**super().cut(), "stem": self.stem}

    def _covers_probe(self, item: QTuple, target: str, outcome) -> bool:
        """Whether the probe outcome proves *this query* got every match.

        For a private SteM the SteM's own coverage verdict is enough: any
        match suppressed by the TimeStamp constraint was built by this same
        query's dataflow and will be produced from the other side.  Shared
        SteMs override this (see :class:`SharedSteMModule`).
        """
        del item, target
        return outcome.all_matches_known

    # -- introspection --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of rows currently stored in the SteM."""
        return len(self.stem)

    def signature_match_rate(
        self, spanned_mask: int, done_mask: int, min_probes: int = 5
    ) -> float | None:
        """Observed matches-per-probe for one probe signature, or None.

        Returns None until ``min_probes`` probes with this exact
        (spanned_mask, done_mask) state have been observed, so callers fall
        back to a coarser estimate instead of trusting noise.
        """
        counters = self.signature_stats.get((spanned_mask, done_mask))
        if counters is None or counters[0] < min_probes:
            return None
        return counters[1] / counters[0]

    @property
    def scan_complete(self) -> bool:
        """True once a scan EOT for the table has been built."""
        return self.stem.scan_complete


class SharedSteMModule(SteMModule):
    """One query's view of a SteM shared across concurrent queries.

    Paper §2.1.4 argues that decoupled join state is the natural unit of
    *sharing*, and the continuous-query systems it cites (CACQ, PSoUP) run
    many queries over one set of SteMs.  This module gives each admitted
    query its own eddy-facing wrapper — own name, own per-query aliases, own
    statistics — over a :class:`~repro.core.stem.SteM` owned by a
    :class:`~repro.core.stem_registry.SteMRegistry`.  Two behaviours differ
    from the private wrapper:

    * **Builds** are deduplicated globally by the SteM, but BounceBack is
      per-query: a row another query inserted first must still bounce back
      into *this* query's dataflow (carrying the shared build timestamp) or
      this query would never probe with it.  Only a row this query has
      already carried — a competing-AM duplicate in the paper's sense — is
      dropped.
    * **Coverage** is claimed per-query-safely: a shared SteM may contain
      rows built *after* this probe tuple (timestamp-suppressed matches)
      that were inserted by another query's dataflow and will never bounce
      through this one.  Unless this query's own scan re-delivers them, the
      probe must not be marked exhausted, so the AM-probe path stays open
      and completeness is preserved.
    """

    def __init__(
        self,
        stem: SteM,
        alias: str,
        predicates: Sequence[Predicate],
        build_cost: float = 1e-4,
        probe_cost: float = 2e-4,
    ):
        super().__init__(
            stem,
            predicates,
            build_cost=build_cost,
            probe_cost=probe_cost,
            name=f"stem:{alias}",
            aliases=(alias,),
        )
        #: Rows this query's dataflow has already built or bounced back.
        #: An evicted row is forgotten again (the SteM tells us), so a
        #: re-delivered copy re-enters the dataflow instead of being
        #: mistaken for a still-stored duplicate.  (The window itself stays
        #: shared state: with several queries its eviction order interleaves
        #: across queries, so bounded-SteM results are the shared window's,
        #: not a private window's.)
        self._carried: set = set()
        self._evict_callback = self._carried.discard
        stem.add_evict_listener(self._evict_callback)
        self.stats.update({"shared_hits": 0})

    def detach(self) -> None:
        """Retirement teardown: leave no trace of this query on the SteM."""
        self.stem.remove_evict_listener(self._evict_callback)
        self._carried.clear()

    def cut(self) -> dict:
        """The carried set as build timestamps (every carried row is stored:
        the evict listener forgets the ones that left)."""
        timestamp_of = self.stem.timestamp_of
        carried = tuple(sorted(int(timestamp_of(row)) for row in self._carried))
        # Module.cut, not the private wrapper's: a shared SteM is persisted
        # once, with the registry's tables.
        return {**Module.cut(self), "state": carried}

    def restore(self, cut: dict) -> None:
        super().restore(cut)
        rows = {timestamp: row for row, timestamp in self.stem.state_entries()}
        try:
            self._carried.update(rows[timestamp] for timestamp in cut["state"])
        except KeyError as missing:
            raise ExecutionError(
                f"{self.name}: the cut carries build timestamp {missing} "
                f"but the restored SteM on {self.stem.table!r} holds no such row"
            ) from None

    def _handle_build(self, item: QTuple) -> list[Routable]:
        assert self.runtime is not None
        alias = item.single_alias
        row = item.component(alias)
        try:
            outcome = self.stem.build(row, self.runtime.next_timestamp())
        except ExecutionError:
            raise
        except Exception as error:
            self._trap_poison(item, error)
            return []
        self.stats["builds"] += 1
        if row in self._carried:
            # This query already carried the row through its dataflow: a
            # competing-AM duplicate, ended here (SteM BounceBack).
            self.stats["duplicates"] += 1
            self.runtime.note_absorbed(item)
            return []
        self._carried.add(row)
        if outcome.duplicate:
            # Another query (or another alias) inserted the row first; this
            # query's copy adopts the shared build timestamp and continues.
            self.stats["shared_hits"] += 1
        item.mark_built(alias, outcome.timestamp)
        return [item]

    def _covers_probe(self, item: QTuple, target: str, outcome) -> bool:
        if not outcome.all_matches_known:
            return False
        # Timestamp-suppressed matches were inserted after this tuple was
        # built.  In a shared SteM they may belong to another query's
        # dataflow; they only reach this query if its own scan re-delivers
        # them.  Otherwise keep the AM-probe path open.
        return outcome.suppressed_by_timestamp == 0 or self.runtime.has_scan_am(target)
