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
    """One query's eddy-facing view of a SteM the registry owns.

    Paper §2.1.4 makes the SteM the unit of sharing: every query runs on
    SteMs drawn from a :class:`~repro.core.stem_registry.SteMRegistry`, one
    per base table and shared by every query that reads the table (a
    self-join alias gets one only its own query uses).  Each query gets its
    own wrapper — own name, own alias, own statistics — and two rules are
    per query:

    * **BounceBack.**  Builds are deduplicated by the SteM, but a row
      another query inserted first must still bounce back into *this*
      query's dataflow (carrying the shared build timestamp), or this query
      would never probe with it.  Only a row this query has already carried
      — a competing-AM duplicate in the paper's sense — is dropped.
    * **Coverage.**  A probe is marked exhausted when the SteM knows all its
      matches and every match the TimeStamp constraint suppressed will
      reach this query from the other side: there are none, this query's
      own scan on the target re-delivers them, or this query carried every
      row the SteM holds.  Otherwise the AM-probe path stays open.

    Args:
        stem: the underlying state module.
        alias: the query alias this module serves; the module is named
            ``stem:{alias}``, the name policies and traces expect.
        predicates: all query predicates (the module selects the evaluable,
            not-yet-done subset for each probe).
        build_cost: virtual seconds per build request.
        probe_cost: virtual seconds per probe request.
    """

    kind = "stem"

    def __init__(
        self,
        stem: SteM,
        alias: str,
        predicates: Sequence[Predicate],
        build_cost: float = 1e-4,
        probe_cost: float = 2e-4,
    ):
        super().__init__(f"stem:{alias}", cost=probe_cost)
        self.stem = stem
        self.alias = alias
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
        #: Rows this query's dataflow has already built or bounced back, all
        #: of them stored: an evicted row is forgotten again (the SteM tells
        #: us), so a re-delivered copy re-enters the dataflow instead of
        #: being mistaken for a still-stored duplicate.  (The window itself
        #: is the SteM's: with several queries its eviction order
        #: interleaves across queries, so bounded-SteM results are the
        #: shared window's, not a private window's.)
        self._carried: set = set()
        self._evict_callback = self._carried.discard
        stem.add_evict_listener(self._evict_callback)

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
        return alias == self.alias and not (item.built_mask and item.has_built(alias))

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
        if row in self._carried:
            # SteM BounceBack constraint: this query already carried the row
            # through its dataflow, so the copy is a competing-AM duplicate
            # and ends here instead of bouncing back.
            self.stats["duplicates"] += 1
            self.runtime.note_absorbed(item)
            return []
        # A row another query inserted first adopts the shared build
        # timestamp and continues through this query's dataflow.
        self._carried.add(row)
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
        run = outcome.run
        matches = 0 if run is None else len(run.rows)
        self.stats["probes"] += 1
        self.stats["results"] += matches
        key = (item.spanned_mask, item.done_mask)
        counters = self.signature_stats.get(key)
        if counters is None:
            counters = self.signature_stats[key] = [0, 0]
        counters[0] += 1
        counters[1] += matches
        if matches:
            # n-ary SHJ discipline: once a probe produced concatenations, the
            # original tuple stops probing further SteMs; its extensions
            # carry the derivation forward (keeps derivations tree-shaped).
            item.stop_stem_probes = True
        # A suppressed match reaches this query from the other side only if
        # its scan re-delivers it or the query carried it (so all of them
        # when it carried every stored row): the class docstring's rule.
        covered = outcome.all_matches_known and (
            outcome.suppressed_by_timestamp == 0
            or self.runtime.has_scan_am(target)
            or len(self._carried) == len(self.stem)
        )
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
        # The matches travel as one run, ahead of the probe, as they always did.
        return [item] if run is None else [run, item]

    def _probe_target(self, item: QTuple) -> str | None:
        return None if self.alias in item.aliases else self.alias

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
        """Retirement teardown: leave no trace of this query on the SteM."""
        self.stem.remove_evict_listener(self._evict_callback)
        self._carried.clear()

    def cut(self) -> dict:
        """The carried set as build timestamps (every carried row is stored:
        the evict listener forgets the ones that left).  The SteM itself is
        the registry's, persisted once with the checkpoint's tables."""
        timestamp_of = self.stem.timestamp_of
        carried = tuple(sorted(int(timestamp_of(row)) for row in self._carried))
        return {**super().cut(), "state": carried}

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

    # -- introspection --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of rows currently stored in the SteM."""
        return len(self.stem)

    def signature_match_rate(self, spanned_mask: int, done_mask: int) -> float | None:
        """Observed matches-per-probe for one probe signature, or None.

        Returns None until five probes with this exact (spanned_mask,
        done_mask) state have been observed, so callers fall back to a
        coarser estimate instead of trusting noise.
        """
        counters = self.signature_stats.get((spanned_mask, done_mask))
        if counters is None or counters[0] < 5:
            return None
        return counters[1] / counters[0]

    @property
    def scan_complete(self) -> bool:
        """True once a scan EOT for the table has been built."""
        return self.stem.scan_complete
