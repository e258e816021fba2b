"""Routing constraints (paper Table 2) and legal-destination computation.

The eddy is free to route tuples however it likes *within* the constraints
that guarantee correct, duplicate-free, terminating execution:

* **BuildFirst** — a singleton tuple is first built into its table's SteM.
  (Like the paper's own experimental implementation — section 4.1 — we
  always build, which is cheap for main-memory SteMs and never wrong.)
* **BoundedRepetition** — no tuple is routed to the same module more than
  once.  The relaxed, LastMatchTimeStamp-based repetition of section 3.5 is
  not implemented.
* **ProbeCompletion** — a tuple bounced back from a SteM probe (a "prior
  prober") may not probe any other SteM; it stays in the dataflow until it
  has probed an access method on its probe completion table.
* **SteM BounceBack / TimeStamp** — enforced inside the SteM and AM
  implementations themselves (see ``repro.core.stem`` and
  ``repro.core.modules``), so routing policies need not be aware of them.

:class:`ConstraintChecker` turns these rules into the list of *legal
destinations* for a tuple; routing policies only ever choose among legal
destinations, and a strict mode raises :class:`RoutingViolationError` when a
(custom) policy tries to step outside them.

Since the bitmask-TupleState refactor the checker evaluates the Table 2
rules with integer algebra over the query's compiled
:class:`~repro.query.layout.PlanLayout`: adjacent-unspanned aliases are
``adjacency_of(spanned) & ~spanned``, selection eligibility is one AND per
predicate against its precomputed alias-requirement mask, and output
readiness is two mask comparisons.  The remaining per-destination work —
``IndexAMModule.bind_key``, consulted here for every candidate AM — runs
over bind sources precompiled by
:func:`~repro.query.probeplan.compile_bind_sources` rather than a scan of
the predicate objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import RoutingViolationError
from repro.core.modules.access import IndexAMModule
from repro.core.modules.base import Module
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.tuples import MatchRun, QTuple
from repro.query.layout import PlanLayout


@dataclass(frozen=True)
class Destination:
    """A legal routing target for a tuple.

    Attributes:
        module: the module to route to.
        action: ``"build"``, ``"probe"``, ``"select"`` or ``"am_probe"``.
        target_alias: the alias being extended/probed (None for selections).
        required: True when the destination must eventually be visited for
            correctness or completeness; False for purely opportunistic work
            (e.g. probing an index AM on a table that also has a scan).
    """

    module: Module
    action: str
    target_alias: str | None
    required: bool = True

    def __repr__(self) -> str:
        flag = "required" if self.required else "optional"
        return f"Destination({self.action}->{self.module.name}, {flag})"


#: :attr:`RoutePlan.choice` until the eddy has asked its policy.
UNCHOSEN = object()


class RoutePlan:
    """How every tuple of one routing signature is routed: output readiness
    and legal destinations are functions of the TupleState alone (Table 2),
    so one exemplar (a run's first match) decides them.  ``choice`` is the
    policy's ``fixed_choice`` among the destinations, filled in by the eddy
    at first use (None: the policy decides per tuple)."""

    __slots__ = ("output", "destinations", "choice")

    def __init__(self, resolver, exemplar: QTuple | MatchRun):
        if exemplar.__class__ is MatchRun:
            exemplar = exemplar.first()
        self.output = resolver.ready_for_output(exemplar)
        self.destinations = tuple(resolver.destinations(exemplar))
        self.choice = UNCHOSEN


class ConstraintChecker:
    """Computes the legal destinations of a tuple under the Table 2 rules.

    Args:
        layout: the query's compiled :class:`PlanLayout`, shared with its
            eddy (its adjacency drives probe targets).
        stems: SteM modules keyed by alias.
        selections: selection modules, one per selection predicate.
        index_ams: index access modules keyed by alias.
        scan_aliases: aliases whose table has at least one scan AM.
    """

    def __init__(
        self,
        layout: PlanLayout,
        stems: Mapping[str, SteMModule],
        selections: Sequence[SelectionModule],
        index_ams: Mapping[str, Sequence[IndexAMModule]],
        scan_aliases: Iterable[str],
    ):
        self.layout = layout
        self.stems = dict(stems)
        self.selections = tuple(selections)
        self.index_ams = {alias: tuple(ams) for alias, ams in index_ams.items()}
        self.scan_aliases = frozenset(scan_aliases)
        #: Precomputed bitwise evaluation tables over the layout (see
        #: :meth:`PlanLayout.selection_entries` for the eligibility rule).
        self._alias_bits = self.layout.alias_bits
        self._selection_table = self.layout.selection_entries(self.selections)
        #: For GROUP BY queries the SteM build *is* the aggregate
        #: maintenance source, so a singleton may not short-circuit to
        #: output before building — BuildFirst extends to output readiness.
        query = layout.query
        self._aggregate_build_mask = (
            layout.bit_of(query.aggregate_alias) if query.is_aggregate else 0
        )
        #: Route-plan cache: routing signature -> :class:`RoutePlan`, kept
        #: for the query's life.  Valid because output readiness and
        #: destination legality are pure functions of the signature given
        #: the query's static modules: a scan finishing or a SteM sealing
        #: changes probe coverage, which a SteM reads at probe time, not a
        #: plan.
        self._plans: dict[tuple, RoutePlan] = {}
        self.cache_stats: dict[str, int] = {"hits": 0, "misses": 0}

    # -- destination computation -----------------------------------------------

    def route_plan(self, signature: tuple, exemplar: QTuple) -> RoutePlan:
        """The plan of every tuple sharing a routing signature, computed from
        ``exemplar`` (any tuple with it) once and memoized."""
        plan = self._plans.get(signature)
        if plan is not None:
            self.cache_stats["hits"] += 1
            return plan
        plan = RoutePlan(self, exemplar)
        if not exemplar.failed:
            # The failed flag is not part of the routing signature (failed
            # tuples never reach routing); never cache a failed exemplar's
            # empty plan under a signature live tuples share.
            self.cache_stats["misses"] += 1
            self._plans[signature] = plan
        return plan

    def destinations_for_signature(self, signature: tuple, exemplar: QTuple) -> list[Destination]:
        """A copy of the legal destinations of :meth:`route_plan`."""
        return list(self.route_plan(signature, exemplar).destinations)

    def destinations(self, tuple_: QTuple) -> list[Destination]:
        """All legal destinations for the tuple, required ones first."""
        if tuple_.failed:
            return []
        build = self._build_destination(tuple_)
        if build is not None:
            # BuildFirst: nothing else is legal until the tuple has built.
            return [build]
        result: list[Destination] = []
        result.extend(self._selection_destinations(tuple_))
        result.extend(self._probe_destinations(tuple_))
        result.sort(key=lambda destination: not destination.required)
        return result

    def _build_destination(self, tuple_: QTuple) -> Destination | None:
        if not tuple_.is_singleton:
            return None
        if tuple_.built_mask & tuple_.spanned_mask:
            return None
        alias = tuple_.single_alias
        stem = self.stems.get(alias)
        if stem is None:
            return None
        return Destination(stem, "build", alias, required=True)

    def _selection_destinations(self, tuple_: QTuple) -> list[Destination]:
        result = []
        spanned = tuple_.spanned_mask
        done = tuple_.done_mask
        for module, done_bit, required_mask in self._selection_table:
            if done & done_bit:
                continue
            if required_mask & ~spanned:
                continue
            if tuple_.visited(module.name):
                continue
            result.append(Destination(module, "select", None, required=True))
        return result

    def _probe_destinations(self, tuple_: QTuple) -> list[Destination]:
        result: list[Destination] = []
        prior_prober_of = tuple_.probe_completion_alias
        resolved = tuple_.resolved_mask
        exhausted = tuple_.exhausted_mask
        for alias in self.layout.adjacent_unspanned(tuple_.spanned_mask):
            alias_bit = self._alias_bits[alias]
            stem = self.stems.get(alias)
            stem_unvisited = stem is not None and not tuple_.visited(stem.name)
            if stem_unvisited and not tuple_.stop_stem_probes:
                # ProbeCompletion: a prior prober may not probe other SteMs.
                if prior_prober_of is None or prior_prober_of == alias:
                    result.append(Destination(stem, "probe", alias, required=True))
            if stem_unvisited:
                # Index AMs only become destinations once the (cheap) SteM
                # cache has been consulted.
                continue
            if exhausted & alias_bit:
                continue
            if prior_prober_of is not None and prior_prober_of != alias:
                continue
            for am in self.index_ams.get(alias, ()):
                if tuple_.visited(am.name):
                    continue
                if am.bind_key(tuple_) is None:
                    continue
                is_resolved = bool(resolved & alias_bit)
                required = prior_prober_of == alias and not is_resolved
                optional_useful = alias in self.scan_aliases or not is_resolved
                if required or optional_useful:
                    result.append(
                        Destination(am, "am_probe", alias, required=required)
                    )
        return result

    # -- readiness --------------------------------------------------------------

    def ready_for_output(self, tuple_: QTuple) -> bool:
        """True if the tuple spans all aliases and passed every predicate."""
        if tuple_.failed:
            return False
        if self._aggregate_build_mask & ~tuple_.built_mask:
            # Aggregate queries: the build feeds the AggregateModule's
            # delta, so it must happen before the tuple may leave.
            return False
        return self.layout.is_complete(tuple_.spanned_mask, tuple_.done_mask)

    # -- strict validation ---------------------------------------------------------

    def validate(self, tuple_: QTuple, destination: Destination) -> None:
        """Raise :class:`RoutingViolationError` if the routing is illegal."""
        legal = self.destinations(tuple_)
        for candidate in legal:
            if (
                candidate.module is destination.module
                and candidate.action == destination.action
                and candidate.target_alias == destination.target_alias
            ):
                return
        raise RoutingViolationError(
            f"routing {tuple_} to {destination.module.name} ({destination.action}) "
            f"violates the routing constraints; legal destinations: "
            f"{[d.module.name for d in legal]}"
        )
